//! `tectonic-simnet` — deterministic fault injection for the paper pipeline.
//!
//! The paper's measurements survived a hostile network: rate-limiting
//! resolvers, Atlas probes behind blocking resolvers that rewrite RCODEs
//! (§3), truncated and garbage DNS replies, ingress nodes that ignore
//! standard QUIC Initials (§6), and routing churn. The reproduction's
//! pipelines, in contrast, were only ever exercised on the happy path. This
//! crate inserts a *deterministic* fault layer between every simulated
//! client and server so the chaos matrix (`tests/chaos_matrix.rs`,
//! `xtask chaos`) can prove each artifact is either invariant under faults
//! or degrades accountably.
//!
//! Determinism is load-bearing: every random draw comes from a
//! [`SimRng`](tectonic_net::SimRng) fork and every timestamp from the
//! caller's [`SimTime`](tectonic_net::SimTime) — no wall clock, no OS
//! entropy — so same-seed runs are byte-identical.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — a named scenario description: per-[`Link`] packet
//!   loss, duplication, reordering, latency jitter, reply truncation and
//!   corruption, rate-limit bursts, blocking-resolver RCODE rewrites,
//!   ingress blackholes, and a BGP announce/withdraw flap spec. Built via
//!   [`FaultPlan::named`] + [`FaultPlan::with_link`], or looked up in the
//!   [`scenarios`] registry.
//! * [`FaultedChannel`] — the delivery layer that rolls the dice, keeps
//!   per-link [`LinkStats`], and wraps any
//!   [`NameServer`](tectonic_dns::server::NameServer) via [`FaultedServer`].

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing,
        clippy::iter_over_hash_type
    )
)]
#![deny(rust_2018_idioms)]

pub mod channel;

use std::collections::BTreeMap;

use tectonic_net::SimDuration;

pub use channel::{Delivery, FaultedChannel, FaultedServer, LinkStats, RibEvent};

/// A faultable edge of the simulated pipeline. Every wrapper and stats
/// bucket is keyed by one of these, so a scenario can degrade the ECS scan
/// without touching the Atlas campaign and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Link {
    /// Scanner → authoritative server (the ECS discovery scan).
    ScanAuth,
    /// Atlas probes → mask authoritative server (A/AAAA campaigns).
    AtlasAuth,
    /// Atlas probes → the experiment's control-domain server.
    ControlAuth,
    /// Relay client → open resolver (ingress discovery per request).
    RelayDns,
    /// QUIC prober → ingress node datagram path.
    QuicIngress,
    /// BGP session → RIB announce/withdraw event feed.
    BgpFeed,
    /// Relay client → egress tunnelled CONNECT-UDP datagram path (§4).
    MasqueData,
}

impl Link {
    /// Every link, in stats/report order.
    pub const ALL: [Link; 7] = [
        Link::ScanAuth,
        Link::AtlasAuth,
        Link::ControlAuth,
        Link::RelayDns,
        Link::QuicIngress,
        Link::BgpFeed,
        Link::MasqueData,
    ];

    /// Stable lowercase label used in reports and RNG fork seeds.
    pub fn label(self) -> &'static str {
        match self {
            Link::ScanAuth => "scan-auth",
            Link::AtlasAuth => "atlas-auth",
            Link::ControlAuth => "control-auth",
            Link::RelayDns => "relay-dns",
            Link::QuicIngress => "quic-ingress",
            Link::BgpFeed => "bgp-feed",
            Link::MasqueData => "masque-data",
        }
    }
}

/// Rewrite the RCODE of a fraction of otherwise-successful replies —
/// modelling the paper's §3 population of probes behind blocking resolvers.
///
/// The affected fraction is selected by *source address* (a stable hash of
/// the querying probe), not per reply, because a blocking resolver blocks
/// every query from the clients behind it, not a coin-flip per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcodeRewrite {
    /// Fraction of source addresses behind a blocking resolver, in `0..=1`.
    pub fraction: f64,
    /// The RCODE those sources see (low nibble; 3 = NXDOMAIN, 5 = REFUSED).
    pub rcode: u8,
}

/// Periodic total-outage windows — a rate limiter tripping in bursts. For
/// `outage` milliseconds out of every `period`, the link drops everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Cycle length.
    pub period: SimDuration,
    /// Outage window at the start of each cycle.
    pub outage: SimDuration,
}

/// Withdraw-and-restore churn over the RIB event feed: every `one_in`-th
/// egress prefix is withdrawn, then re-announced, through the faulted
/// [`Link::BgpFeed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapSpec {
    /// Withdraw every `one_in`-th prefix (2 = half the table).
    pub one_in: usize,
}

/// The fault mix on one [`Link`]. `Default` is fully inert — every field
/// zero/`None`/`false` — so a plan only describes its deviations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a reply is silently dropped.
    pub drop: f64,
    /// Probability a reply would be duplicated (counted; idempotent
    /// request/reply delivery makes the duplicate itself a no-op).
    pub duplicate: f64,
    /// Probability a reply would arrive out of order (counted; materialised
    /// for real on event feeds via
    /// [`feed_events`](channel::FaultedChannel::feed_events)).
    pub reorder: f64,
    /// Max extra one-way latency, drawn uniformly from `0..=jitter_ms`.
    pub jitter_ms: u64,
    /// Probability a reply is truncated below the DNS header (guaranteed
    /// undecodable).
    pub truncate: f64,
    /// Probability a reply's count fields are corrupted (guaranteed
    /// undecodable).
    pub corrupt: f64,
    /// Blocking-resolver RCODE rewriting for a source-address fraction.
    pub rcode_rewrite: Option<RcodeRewrite>,
    /// Periodic rate-limit outage windows.
    pub burst: Option<Burst>,
    /// Total blackhole: nothing is ever delivered.
    pub blackhole: bool,
}

impl LinkFaults {
    /// True when every fault on this link is disabled.
    pub fn is_inert(&self) -> bool {
        *self == LinkFaults::default()
    }
}

/// A complete, named chaos scenario: the per-link fault mixes plus an
/// optional BGP flap. Plans are plain data — the dice live in
/// [`FaultedChannel`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    name: String,
    faults: BTreeMap<Link, LinkFaults>,
    flap: Option<FlapSpec>,
}

/// Shared inert faults returned for links a plan never mentions.
static INERT: LinkFaults = LinkFaults {
    drop: 0.0,
    duplicate: 0.0,
    reorder: 0.0,
    jitter_ms: 0,
    truncate: 0.0,
    corrupt: 0.0,
    rcode_rewrite: None,
    burst: None,
    blackhole: false,
};

impl FaultPlan {
    /// Starts an empty (fault-free) plan under `name`.
    pub fn named(name: &str) -> FaultPlan {
        FaultPlan {
            name: name.to_string(),
            faults: BTreeMap::new(),
            flap: None,
        }
    }

    /// Sets the fault mix for one link, replacing any previous mix.
    pub fn with_link(mut self, link: Link, faults: LinkFaults) -> FaultPlan {
        self.faults.insert(link, faults);
        self
    }

    /// Adds a BGP withdraw/restore flap to the plan.
    pub fn with_flap(mut self, flap: FlapSpec) -> FaultPlan {
        self.flap = Some(flap);
        self
    }

    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fault mix on `link` (inert if the plan never mentioned it).
    pub fn faults_for(&self, link: Link) -> &LinkFaults {
        self.faults.get(&link).unwrap_or(&INERT)
    }

    /// The flap spec, if any.
    pub fn flap(&self) -> Option<FlapSpec> {
        self.flap
    }

    /// True when the plan injects nothing at all.
    pub fn is_inert(&self) -> bool {
        self.flap.is_none() && self.faults.values().all(LinkFaults::is_inert)
    }
}

/// The named-scenario registry the chaos matrix iterates over.
///
/// Adding a scenario: give it a plan in [`by_name`](scenarios::by_name),
/// list it in [`scenarios::ALL`], and teach
/// `tectonic::chaos::check_invariants` what must hold under it (see
/// DESIGN.md §10). `broken-fixture` is deliberately *not* in `ALL`: it
/// exists so the CLI smoke test can watch an invariant violation fail the
/// run.
pub mod scenarios {
    use super::{Burst, FaultPlan, FlapSpec, Link, LinkFaults, RcodeRewrite};
    use tectonic_net::SimDuration;

    /// Every scenario the matrix runs, in execution order.
    pub const ALL: [&str; 12] = [
        "baseline",
        "lossy-resolver",
        "flaky-network",
        "truncator",
        "garbage-replies",
        "rate-limit-storm",
        "blocking-resolvers",
        "control-outage",
        "ingress-blackhole",
        "bgp-flap",
        "relay-session-storm",
        "kitchen-sink",
    ];

    /// Looks up a named scenario plan. Includes the deliberately broken
    /// `broken-fixture` plan (not part of [`ALL`]) used to test that the
    /// invariant checker actually fails runs.
    pub fn by_name(name: &str) -> Option<FaultPlan> {
        let plan = match name {
            // No faults: must reproduce the golden artifacts byte-for-byte.
            "baseline" => FaultPlan::named(name),
            // Heavy loss on the scan path; the retry budget must absorb it
            // with artifacts unchanged.
            "lossy-resolver" => FaultPlan::named(name).with_link(
                Link::ScanAuth,
                LinkFaults {
                    drop: 0.2,
                    ..LinkFaults::default()
                },
            ),
            // Duplication/reordering/jitter everywhere it is harmless:
            // idempotent request/reply delivery must shrug it off.
            "flaky-network" => {
                let noisy = LinkFaults {
                    duplicate: 0.3,
                    reorder: 0.2,
                    jitter_ms: 50,
                    ..LinkFaults::default()
                };
                FaultPlan::named(name)
                    .with_link(Link::ScanAuth, noisy.clone())
                    .with_link(Link::AtlasAuth, noisy)
            }
            // Replies cut below the DNS header: every one must surface as a
            // decode error, never a crash.
            "truncator" => FaultPlan::named(name).with_link(
                Link::ScanAuth,
                LinkFaults {
                    truncate: 0.15,
                    ..LinkFaults::default()
                },
            ),
            // Corrupted count fields: same contract as truncation.
            "garbage-replies" => FaultPlan::named(name).with_link(
                Link::ScanAuth,
                LinkFaults {
                    corrupt: 0.15,
                    ..LinkFaults::default()
                },
            ),
            // A rate limiter tripping in periodic bursts; the scan's paced
            // retries must ride out each 200 ms outage window.
            "rate-limit-storm" => FaultPlan::named(name).with_link(
                Link::ScanAuth,
                LinkFaults {
                    burst: Some(Burst {
                        period: SimDuration::from_millis(5_000),
                        outage: SimDuration::from_millis(200),
                    }),
                    ..LinkFaults::default()
                },
            ),
            // The paper's §3 population: ~8 % of probes behind resolvers
            // that rewrite NoError to NXDOMAIN.
            "blocking-resolvers" => FaultPlan::named(name).with_link(
                Link::AtlasAuth,
                LinkFaults {
                    rcode_rewrite: Some(RcodeRewrite {
                        fraction: 0.08,
                        rcode: 3,
                    }),
                    ..LinkFaults::default()
                },
            ),
            // The control domain goes dark: Refused verdicts lose their
            // corroboration and must degrade to Broken, never Blocked.
            "control-outage" => FaultPlan::named(name).with_link(
                Link::ControlAuth,
                LinkFaults {
                    blackhole: true,
                    ..LinkFaults::default()
                },
            ),
            // Relay ingress discovery and QUIC datagrams silently dropped.
            "ingress-blackhole" => FaultPlan::named(name)
                .with_link(
                    Link::RelayDns,
                    LinkFaults {
                        drop: 0.3,
                        ..LinkFaults::default()
                    },
                )
                .with_link(
                    Link::QuicIngress,
                    LinkFaults {
                        drop: 0.3,
                        ..LinkFaults::default()
                    },
                ),
            // Withdraw half the egress table, then restore it: Table 3 must
            // shrink monotonically and recover exactly.
            "bgp-flap" => FaultPlan::named(name).with_flap(FlapSpec { one_in: 2 }),
            // A burst of concurrent CONNECT-UDP sessions through a lossy,
            // rate-limited tunnel: every injected datagram must reconcile
            // as delivered, channel-dropped, or egress-dropped, and token
            // grants must respect the per-user daily budget.
            "relay-session-storm" => FaultPlan::named(name).with_link(
                Link::MasqueData,
                LinkFaults {
                    drop: 0.15,
                    truncate: 0.05,
                    corrupt: 0.05,
                    burst: Some(Burst {
                        period: SimDuration::from_millis(2_000),
                        outage: SimDuration::from_millis(200),
                    }),
                    ..LinkFaults::default()
                },
            ),
            // Everything at once, at survivable rates.
            "kitchen-sink" => FaultPlan::named(name)
                .with_link(
                    Link::ScanAuth,
                    LinkFaults {
                        drop: 0.1,
                        duplicate: 0.1,
                        jitter_ms: 20,
                        ..LinkFaults::default()
                    },
                )
                .with_link(
                    Link::AtlasAuth,
                    LinkFaults {
                        rcode_rewrite: Some(RcodeRewrite {
                            fraction: 0.05,
                            rcode: 3,
                        }),
                        ..LinkFaults::default()
                    },
                )
                .with_link(
                    Link::RelayDns,
                    LinkFaults {
                        drop: 0.1,
                        ..LinkFaults::default()
                    },
                )
                .with_link(
                    Link::QuicIngress,
                    LinkFaults {
                        drop: 0.2,
                        ..LinkFaults::default()
                    },
                )
                .with_link(
                    Link::MasqueData,
                    LinkFaults {
                        drop: 0.1,
                        ..LinkFaults::default()
                    },
                )
                // Duplication/reordering only — no loss — so the restore
                // leg replays every withdrawal exactly.
                .with_link(
                    Link::BgpFeed,
                    LinkFaults {
                        duplicate: 0.2,
                        reorder: 0.2,
                        ..LinkFaults::default()
                    },
                )
                .with_flap(FlapSpec { one_in: 3 }),
            // Deliberately broken: injects scan-path loss while its
            // invariant demands zero drops. Exists only to prove the
            // checker fails runs (cli_smoke).
            "broken-fixture" => FaultPlan::named(name).with_link(
                Link::ScanAuth,
                LinkFaults {
                    drop: 0.5,
                    ..LinkFaults::default()
                },
            ),
            _ => return None,
        };
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_listed_scenario() {
        for name in scenarios::ALL {
            let plan = scenarios::by_name(name).expect("registered scenario must resolve");
            assert_eq!(plan.name(), name);
        }
        assert!(scenarios::ALL.len() >= 8, "matrix needs >=8 scenarios");
    }

    #[test]
    fn baseline_is_inert_and_unknown_is_none() {
        assert!(scenarios::by_name("baseline").expect("baseline").is_inert());
        assert!(scenarios::by_name("no-such-scenario").is_none());
        assert!(!scenarios::by_name("broken-fixture")
            .expect("broken fixture")
            .is_inert());
    }

    #[test]
    fn unmentioned_links_fall_back_to_inert() {
        let plan = scenarios::by_name("lossy-resolver").expect("lossy");
        assert!(plan.faults_for(Link::ScanAuth).drop > 0.0);
        assert!(plan.faults_for(Link::AtlasAuth).is_inert());
        assert!(!plan.is_inert());
    }
}
