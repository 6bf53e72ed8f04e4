//! Malformed-input regression tests: hostile or corrupt external data must
//! degrade into skip counts on the reports, never abort a run.
//!
//! These pin the PR's two acceptance fixtures: a truncated DNS reply and a
//! corrupt `egress-ip-ranges.csv` row.

use bytes::BytesMut;
use tectonic_core::ecs_scan::EcsScanner;
use tectonic_core::egress_analysis::EgressAnalysis;
use tectonic_core::report::{render_table3, render_table4};
use tectonic_dns::server::{NameServer, QueryContext, ReplyOutcome};
use tectonic_geo::egress::EgressList;
use tectonic_net::{Epoch, SimClock};
use tectonic_relay::{Deployment, DeploymentConfig, Domain};

/// Forwards to a real authoritative server but truncates every reply to its
/// first `keep` bytes — a lossy middlebox chopping UDP payloads.
struct TruncatingServer<S> {
    inner: S,
    keep: usize,
}

impl<S: NameServer> NameServer for TruncatingServer<S> {
    fn handle_query_into(
        &self,
        wire: &[u8],
        ctx: &QueryContext,
        out: &mut BytesMut,
    ) -> ReplyOutcome {
        let outcome = self.inner.handle_query_into(wire, ctx, out);
        out.truncate(self.keep);
        outcome
    }
}

#[test]
fn truncated_replies_are_counted_not_fatal() {
    let d = Deployment::build(7, DeploymentConfig::scaled(4096));
    // 6 bytes is past the message ID but inside the fixed header: every
    // reply decodes as Truncated.
    let auth = TruncatingServer {
        inner: d.auth_server_unlimited(),
        keep: 6,
    };
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let report = scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock);
    assert!(
        report.queries_sent > 0,
        "the scan must still run to completion"
    );
    assert!(
        report.decode_errors > 0,
        "truncated replies must be counted on the report"
    );
    assert_eq!(report.decode_errors, report.queries_sent);
    assert_eq!(report.total(), 0, "no address may be invented from garbage");
}

#[test]
fn corrupt_egress_rows_skip_and_count_without_aborting_tables() {
    let d = Deployment::build(7, DeploymentConfig::scaled(4096));
    let mut text = d.egress_list.to_csv();
    // Splice four corrupt rows in among the good ones: wrong field count
    // (short and long), an unparseable subnet, and free-form junk.
    text.push_str("17.100.0.0/24,US,US-CA\n");
    text.push_str("17.100.1.0/24,US,US-CA,Cupertino,extra\n");
    text.push_str("not-a-subnet,US,US-CA,Cupertino\n");
    text.push_str("<html>503 Service Unavailable</html>\n");
    let (list, stats) = EgressList::parse_csv_lossy(&text);
    assert_eq!(
        stats.rows_skipped, 4,
        "exactly the corrupt rows are dropped"
    );
    assert_eq!(stats.rows_ok, list.len());
    assert!(!stats.errors.is_empty(), "skipped rows retain their errors");
    assert!(!list.is_empty(), "the good rows all survive");

    // Tables 3 and 4 still render from the lossy list — the paper artefact
    // degrades gracefully instead of aborting.
    let analysis = EgressAnalysis::new(&list, &d.rib);
    let t3 = render_table3(&analysis.table3());
    let t4 = render_table4(&analysis.table4());
    assert!(t3.contains("Table 3"), "table 3 renders: {t3:?}");
    assert!(t4.contains("Table 4"), "table 4 renders: {t4:?}");
}
