//! The workspace symbol table: one [`FuncDef`] per non-test function.
//!
//! [`collect`] walks a file's token stream, tracking `mod`/`impl`/`trait`
//! nesting, and records for every function outside `#[cfg(test)]` ranges:
//!
//! * its identity — crate, module (file stem), name, `impl` self type,
//! * its **call sites** — bare calls, `a::b::f()` path calls and `.m()`
//!   method calls, the raw material for [`crate::graph`],
//! * its **lock events** — acquisitions of struct fields declared as
//!   `Mutex`/`RwLock` (blocking `lock`/`read`/`write`; `try_lock` cannot
//!   deadlock and is ignored), interleaved with the call sites so the
//!   lock-order analysis sees what is held across which calls,
//! * its order-dependent `.fork(` calls, shared-mutable-state touches,
//!   allocation sites and order IR, for the determinism and resource rules.
//!
//! Default method bodies inside `trait` blocks are recorded as functions
//! whose self type is the trait, so a `.name()` call on a trait object
//! links to them as well as to every impl.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{collect_reasoned_allows, test_gated_ranges, Rule};

/// One callable the analyzer knows about.
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// Crate directory name (`core`, `dns`, …; `tectonic` for the root).
    pub crate_name: String,
    /// Module name — the file stem (`ecs_scan`, `wire`, `lib`).
    pub module: String,
    /// The function name.
    pub name: String,
    /// The `impl` self-type name, when defined inside an `impl` block, or
    /// the trait name for a default method body inside a `trait` block.
    pub self_type: Option<String>,
    /// The trait name when defined inside an `impl Trait for Type` block
    /// (also set, to the trait's own name, for trait default bodies).
    pub impl_trait: Option<String>,
    /// Whether this is a default method body inside a `trait` block.
    pub in_trait: bool,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature declares a `->` return type.
    pub returns_value: bool,
    /// Whether the return type mentions `HashMap`/`HashSet` — callers
    /// binding this call's result hold an unordered container.
    pub ret_unordered_container: bool,
    /// Parameter names, in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// Parameter names whose declared type mentions `HashMap`/`HashSet`.
    pub unordered_params: Vec<String>,
    /// Parameter names passed by `&mut` reference — writes through them
    /// escape to the caller.
    pub ref_mut_params: Vec<String>,
    /// `HashMap`/`HashSet` struct-field names declared in the same file,
    /// visible to this function as `self.<field>`.
    pub map_fields: Vec<String>,
    /// Unsuppressed order-dependent `.fork(` call sites.
    pub fork_sites: Vec<Site>,
    /// Unsuppressed shared-mutable-state touches (`Mutex`, `OnceLock`,
    /// atomics, `.lock()`, `static mut`, …).
    pub shared_sites: Vec<Site>,
    /// Unsuppressed heap-allocation sites (`Vec::new`, `vec!`,
    /// `with_capacity`, `.to_vec()`, `.collect()`, `.clone()` on
    /// heap-typed values, …) for the alloc-in-hot-path rule.
    pub alloc_sites: Vec<Site>,
    /// Lines carrying a reasoned `allow(map-iter-order)` — seeds the order
    /// dataflow must skip.
    pub order_allows: Vec<u32>,
    /// The statement-level order IR the map-iter-order dataflow replays
    /// (see [`crate::order`]).
    pub order_stmts: Vec<OrderStmt>,
    /// Body events in source order (calls and lock acquisitions).
    pub events: Vec<Event>,
}

impl FuncDef {
    /// `crate::module::name`, the display path used in findings and DOT.
    pub fn path(&self) -> String {
        format!("{}::{}::{}", self.crate_name, self.module, self.name)
    }
}

/// A single interesting source location inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-indexed line.
    pub line: u32,
    /// What sits there (`.fork()`, `vec!`, `Mutex`, …).
    pub what: String,
}

/// One body event, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A call site.
    Call(CallSite),
    /// A blocking acquisition of a known lock field.
    Acquire {
        /// The lock's identity (see [`LockDecl::id`]).
        lock: String,
        /// 1-indexed line of the acquisition.
        line: u32,
    },
}

/// How a call site names its callee.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments before the final name (`["masque"]` for
    /// `masque::establish(..)`, empty for bare calls).
    pub qualifiers: Vec<String>,
    /// The called name.
    pub name: String,
    /// `.name(..)` method-call syntax.
    pub is_method: bool,
    /// 1-indexed line.
    pub line: u32,
}

/// One statement of the order IR: a flat lexical summary of what the
/// statement binds, reads, calls and chains, retained so the
/// map-iter-order dataflow ([`crate::order`]) can replay the
/// intra-function analysis whenever interprocedural callee summaries
/// change.
#[derive(Debug, Clone, Default)]
pub struct OrderStmt {
    /// 1-indexed line the statement starts on.
    pub line: u32,
    /// Assignment destinations: `let` pattern variables, a reassigned
    /// variable, or a dotted `self.field` path.
    pub dests: Vec<String>,
    /// The destinations are freshly bound with `let` (a rebind clears any
    /// previous taint on the name).
    pub is_let: bool,
    /// Type-annotation identifiers on the `let` destination.
    pub dest_type: Vec<String>,
    /// `for <pat> in …` loop variables — the statement is a loop header,
    /// where reading an unordered container *is* iterating it.
    pub for_vars: Vec<String>,
    /// Root identifiers read (`x`, `self.field`).
    pub reads: Vec<String>,
    /// Path qualifiers seen (`HashMap` in `HashMap::new()`) — the
    /// constructor evidence for container typing.
    pub quals: Vec<String>,
    /// Method-chain uses, in source order.
    pub methods: Vec<MethodUse>,
    /// Free/path call names with their call-site lines.
    pub calls: Vec<(String, u32)>,
    /// Statement starts with `return`.
    pub is_return: bool,
    /// Statement is the function's trailing tail expression.
    pub is_tail: bool,
    /// Compound assignment (`+=`, `|=`, …): a commutative accumulation,
    /// treated as an order boundary.
    pub compound_assign: bool,
}

/// One `.name(…)` use inside a statement's method chains.
#[derive(Debug, Clone)]
pub struct MethodUse {
    /// The method name.
    pub name: String,
    /// The dotted receiver root (`m`, `self.map`) when the call starts a
    /// chain from a named place; `None` mid-chain (after `)`/`]`).
    pub recv: Option<String>,
    /// Identifiers inside a `::<…>` turbofish (`collect` targets).
    pub turbofish: Vec<String>,
    /// 1-indexed line.
    pub line: u32,
}

/// A struct field declared with a `Mutex`/`RwLock` type.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Workspace-relative file the struct lives in.
    pub file: String,
    /// The struct name.
    pub struct_name: String,
    /// The field name.
    pub field: String,
}

impl LockDecl {
    /// The stable identity used in lock-order findings: `Struct.field`.
    pub fn id(&self) -> String {
        format!("{}.{}", self.struct_name, self.field)
    }
}

/// Everything [`collect`] extracted from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// The functions defined in the file (test-gated ones excluded).
    pub funcs: Vec<FuncDef>,
    /// `Mutex`/`RwLock` struct fields declared in the file.
    pub locks: Vec<LockDecl>,
    /// `HashMap`/`HashSet` struct-field names declared in the file.
    pub map_fields: Vec<String>,
}

/// Extracts the symbol table of one file.
pub fn collect(crate_name: &str, module: &str, rel_path: &str, src: &str) -> FileSymbols {
    let tokens = lex(src);
    let order_allows = collect_reasoned_allows(&tokens, &[Rule::MapIterOrder]);
    let fork_allows = collect_reasoned_allows(&tokens, &[Rule::RngForkOrder]);
    let shared_allows = collect_reasoned_allows(&tokens, &[Rule::ShardStateEscape]);
    let alloc_allows = collect_reasoned_allows(&tokens, &[Rule::AllocInHotPath]);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let skip = test_gated_ranges(&code);
    let heap_idents = heap_idents(&code);
    let mut out = FileSymbols::default();
    let mut walker = Walker {
        code: &code,
        skip: &skip,
        order_allows: &order_allows,
        fork_allows: &fork_allows,
        shared_allows: &shared_allows,
        alloc_allows: &alloc_allows,
        heap_idents: &heap_idents,
        crate_name,
        module,
        rel_path,
        out: &mut out,
    };
    walker.items(0, code.len(), &Ctx::default());
    // Struct declarations may follow the impls that use them, so the
    // file-level map-field set is distributed after the walk.
    let map_fields = out.map_fields.clone();
    for f in &mut out.funcs {
        f.map_fields = map_fields.clone();
    }
    out
}

/// Identifiers the file gives lexical evidence of being heap-typed —
/// `name: Vec<…>`-shaped ascriptions (params, struct fields, lets) and
/// `let name = <heap constructor>` bindings. Used to decide whether a
/// `.clone()` allocates. Evidence-based and file-global: a name typed
/// heap anywhere counts, which over-approximates across functions, but a
/// reasoned allow documents the rare false positive.
fn heap_idents(code: &[&Token]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let is_heap_head = |t: &Token| {
        t.kind == TokenKind::Ident && crate::resource::HEAP_TYPES.contains(&t.text.as_str())
    };
    for i in 0..code.len() {
        // `name : …Vec<…>…` — scan the type tokens to the segment end.
        if code[i].kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && !code.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && (i == 0 || !code[i - 1].is_punct(b':'))
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            while let Some(t) = code.get(j) {
                match t.kind {
                    TokenKind::Punct(b'<') | TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => {
                        depth += 1
                    }
                    TokenKind::Punct(b'>') | TokenKind::Punct(b')') | TokenKind::Punct(b']') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct(b',')
                    | TokenKind::Punct(b';')
                    | TokenKind::Punct(b'=')
                    | TokenKind::Punct(b'{')
                    | TokenKind::Punct(b'}')
                        if depth == 0 =>
                    {
                        break;
                    }
                    _ => {
                        if is_heap_head(t) || t.is_ident("String") {
                            out.insert(code[i].text.clone());
                            break;
                        }
                    }
                }
                j += 1;
            }
        }
        // `let name = <rhs>;` where the RHS visibly constructs heap data.
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = code.get(j) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident
                || !code.get(j + 1).is_some_and(|t| t.is_punct(b'='))
            {
                continue;
            }
            let mut depth = 0i32;
            let mut k = j + 2;
            while let Some(t) = code.get(k) {
                match t.kind {
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth -= 1,
                    TokenKind::Punct(b';') | TokenKind::Punct(b'{') if depth == 0 => break,
                    TokenKind::Ident => {
                        let heap_ctor = (is_heap_head(t)
                            && code.get(k + 1).is_some_and(|n| n.is_punct(b':')))
                            || (matches!(t.text.as_str(), "vec" | "format")
                                && code.get(k + 1).is_some_and(|n| n.is_punct(b'!')))
                            || (matches!(
                                t.text.as_str(),
                                "to_vec" | "to_string" | "to_owned" | "collect"
                            ) && code.get(k + 1).is_some_and(|n| n.is_punct(b'(')));
                        if heap_ctor {
                            out.insert(name_tok.text.clone());
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    out
}

/// What [`Walker::signature`] extracts from one function signature.
#[derive(Debug, Default)]
struct SigInfo {
    params: Vec<String>,
    unordered_params: Vec<String>,
    ref_mut_params: Vec<String>,
    returns_value: bool,
    ret_unordered: bool,
}

/// Item-walk context: the `impl`/`trait` block we are inside, if any.
#[derive(Debug, Clone, Default)]
struct Ctx {
    self_type: Option<String>,
    impl_trait: Option<String>,
    in_trait: bool,
}

struct Walker<'a> {
    code: &'a [&'a Token],
    skip: &'a [(usize, usize)],
    order_allows: &'a [u32],
    fork_allows: &'a [u32],
    shared_allows: &'a [u32],
    alloc_allows: &'a [u32],
    heap_idents: &'a std::collections::BTreeSet<String>,
    crate_name: &'a str,
    module: &'a str,
    rel_path: &'a str,
    out: &'a mut FileSymbols,
}

impl Walker<'_> {
    fn in_skip(&self, i: usize) -> bool {
        self.skip.iter().any(|(lo, hi)| (*lo..=*hi).contains(&i))
    }

    /// Index of the `}`/`)`/`]`/`>` closing the opener at `open` (same
    /// punctuation family), or the end of the stream.
    fn close_of(&self, open: usize, opener: u8, closer: u8) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while let Some(t) = self.code.get(i) {
            if t.is_punct(opener) {
                depth += 1;
            } else if t.is_punct(closer) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Walks the items in `code[lo..hi]`, collecting functions.
    fn items(&mut self, lo: usize, hi: usize, ctx: &Ctx) {
        let mut i = lo;
        while i < hi {
            if self.in_skip(i) {
                i += 1;
                continue;
            }
            let t = self.code[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "fn" => i = self.func(i, ctx, hi),
                "mod" => {
                    // Inline module: recurse into its braces (same file, so
                    // the module name for resolution stays the file stem).
                    let mut j = i + 1;
                    while j < hi && !self.code[j].is_punct(b'{') && !self.code[j].is_punct(b';') {
                        j += 1;
                    }
                    if j < hi && self.code[j].is_punct(b'{') {
                        let close = self.close_of(j, b'{', b'}');
                        self.items(j + 1, close.min(hi), ctx);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "impl" => {
                    let (header_end, self_type, impl_trait) = self.impl_header(i, hi);
                    if header_end < hi && self.code[header_end].is_punct(b'{') {
                        let close = self.close_of(header_end, b'{', b'}');
                        let inner = Ctx {
                            self_type,
                            impl_trait,
                            in_trait: false,
                        };
                        self.items(header_end + 1, close.min(hi), &inner);
                        i = close + 1;
                    } else {
                        i = header_end + 1;
                    }
                }
                "trait" => {
                    let name = self
                        .code
                        .get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone());
                    let mut j = i + 1;
                    while j < hi && !self.code[j].is_punct(b'{') && !self.code[j].is_punct(b';') {
                        j += 1;
                    }
                    if j < hi && self.code[j].is_punct(b'{') {
                        let close = self.close_of(j, b'{', b'}');
                        self.trait_body(j + 1, close.min(hi), name.as_deref());
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "struct" => {
                    i = self.struct_decl(i, hi);
                }
                _ => i += 1,
            }
        }
    }

    /// Walks a `trait` block's default bodies as ordinary functions (tagged
    /// `in_trait`).
    fn trait_body(&mut self, lo: usize, hi: usize, trait_name: Option<&str>) {
        let mut i = lo;
        while i < hi {
            if self.code[i].is_ident("fn") {
                let ctx = Ctx {
                    self_type: trait_name.map(String::from),
                    impl_trait: trait_name.map(String::from),
                    in_trait: true,
                };
                i = self.func(i, &ctx, hi);
            } else {
                i += 1;
            }
        }
    }

    /// Parses `impl … {`, returning the index of the body `{`, the
    /// self-type name (the last path segment before the brace, or before
    /// `for` when it is a trait impl — `impl Trait for Type`) and, for a
    /// trait impl, the implemented trait's name.
    fn impl_header(&self, start: usize, hi: usize) -> (usize, Option<String>, Option<String>) {
        let mut j = start + 1;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        let mut angle = 0i32;
        while j < hi {
            let t = self.code[j];
            if t.is_punct(b'<') {
                angle += 1;
            } else if t.is_punct(b'>') {
                angle -= 1;
            } else if t.is_punct(b'{') && angle <= 0 {
                break;
            } else if t.is_ident("for") {
                seen_for = true;
            } else if t.is_ident("where") {
                // Type name is settled before the where-clause.
            } else if t.kind == TokenKind::Ident && angle <= 0 {
                if seen_for {
                    after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let impl_trait = if seen_for { last_ident.clone() } else { None };
        (j, after_for.or(last_ident), impl_trait)
    }

    /// Records `Mutex`/`RwLock` fields of a `struct` declaration; returns
    /// the index just past the item.
    fn struct_decl(&mut self, start: usize, hi: usize) -> usize {
        let Some(name) = self
            .code
            .get(start + 1)
            .filter(|t| t.kind == TokenKind::Ident)
        else {
            return start + 1;
        };
        let struct_name = name.text.clone();
        let mut j = start + 2;
        let mut angle = 0i32;
        while j < hi {
            let t = self.code[j];
            if t.is_punct(b'<') {
                angle += 1;
            } else if t.is_punct(b'>') {
                angle -= 1;
            } else if (t.is_punct(b'{') || t.is_punct(b'(') || t.is_punct(b';')) && angle <= 0 {
                break;
            }
            j += 1;
        }
        if j >= hi || !self.code[j].is_punct(b'{') {
            // Tuple/unit struct: no named lock fields to track.
            return j + 1;
        }
        let close = self.close_of(j, b'{', b'}');
        // Fields: `name : Type ,` — a field whose type tokens mention
        // Mutex/RwLock before the next top-level comma is a lock.
        let mut k = j + 1;
        while k < close {
            if self.code[k].kind == TokenKind::Ident
                && self.code.get(k + 1).is_some_and(|t| t.is_punct(b':'))
            {
                let field = self.code[k].text.clone();
                let mut m = k + 2;
                let mut depth = 0i32;
                let mut is_lock = false;
                let mut is_map = false;
                while m < close {
                    let t = self.code[m];
                    if t.is_punct(b'<') || t.is_punct(b'(') {
                        depth += 1;
                    } else if t.is_punct(b'>') || t.is_punct(b')') {
                        depth -= 1;
                    } else if t.is_punct(b',') && depth <= 0 {
                        break;
                    } else if t.is_ident("Mutex") || t.is_ident("RwLock") {
                        is_lock = true;
                    } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                        is_map = true;
                    }
                    m += 1;
                }
                if is_lock {
                    self.out.locks.push(LockDecl {
                        file: self.rel_path.to_string(),
                        struct_name: struct_name.clone(),
                        field,
                    });
                } else if is_map {
                    self.out.map_fields.push(field);
                }
                k = m + 1;
            } else {
                k += 1;
            }
        }
        close + 1
    }

    /// Parses one `fn` starting at the `fn` keyword; returns the index just
    /// past the item.
    fn func(&mut self, fn_kw: usize, ctx: &Ctx, hi: usize) -> usize {
        let Some(name_tok) = self
            .code
            .get(fn_kw + 1)
            .filter(|t| t.kind == TokenKind::Ident)
        else {
            return fn_kw + 1;
        };
        // Signature runs to the body `{` or a `;` (trait method without a
        // default body) at angle-depth 0.
        let mut j = fn_kw + 2;
        let mut angle = 0i32;
        while j < hi {
            let t = self.code[j];
            if t.is_punct(b'<') {
                angle += 1;
            } else if t.is_punct(b'>') {
                angle -= 1;
            } else if (t.is_punct(b'{') || t.is_punct(b';')) && angle <= 0 {
                break;
            }
            j += 1;
        }
        if j >= hi || self.code[j].is_punct(b';') {
            // Bodyless trait-method declaration: nothing to analyze.
            return j + 1;
        }
        let body_open = j;
        let body_close = self.close_of(body_open, b'{', b'}').min(hi);
        let sig = self.signature(fn_kw + 2, body_open);
        let mut def = FuncDef {
            crate_name: self.crate_name.to_string(),
            module: self.module.to_string(),
            name: name_tok.text.clone(),
            self_type: ctx.self_type.clone(),
            impl_trait: ctx.impl_trait.clone(),
            in_trait: ctx.in_trait,
            file: self.rel_path.to_string(),
            line: self.code[fn_kw].line,
            returns_value: sig.returns_value,
            ret_unordered_container: sig.ret_unordered,
            params: sig.params,
            unordered_params: sig.unordered_params,
            ref_mut_params: sig.ref_mut_params,
            map_fields: Vec::new(),
            fork_sites: Vec::new(),
            shared_sites: Vec::new(),
            alloc_sites: Vec::new(),
            order_allows: self.order_allows.to_vec(),
            order_stmts: Vec::new(),
            events: Vec::new(),
        };
        self.body(body_open + 1, body_close, &mut def);
        def.order_stmts = self.order_ir(body_open + 1, body_close, def.returns_value);
        self.out.funcs.push(def);
        body_close + 1
    }

    /// Parses the parameter list and return type of a signature spanning
    /// `code[start..body_open]`.
    fn signature(&self, start: usize, body_open: usize) -> SigInfo {
        let code = self.code;
        let mut info = SigInfo::default();
        // The parameter parens: the first `(` outside the generic list.
        let mut j = start;
        let mut angle = 0i32;
        while j < body_open {
            let t = code[j];
            if t.is_punct(b'<') {
                angle += 1;
            } else if t.is_punct(b'>') {
                angle -= 1;
            } else if t.is_punct(b'(') && angle <= 0 {
                break;
            }
            j += 1;
        }
        if j >= body_open {
            return info;
        }
        let close = self.close_of(j, b'(', b')').min(body_open);
        // Split parameters at top-level commas.
        let mut seg = j + 1;
        let mut depth = 0i32;
        let mut k = j + 1;
        while k <= close {
            let t = code[k];
            let end_seg = k == close || (t.is_punct(b',') && depth <= 0);
            if t.is_punct(b'<') || t.is_punct(b'(') || t.is_punct(b'[') {
                depth += 1;
            } else if t.is_punct(b'>') || t.is_punct(b')') || t.is_punct(b']') {
                depth -= 1;
            }
            if end_seg {
                self.param_segment(seg, k, &mut info);
                seg = k + 1;
            }
            k += 1;
        }
        // Return type: `-> …` between the parens and the body.
        let mut r = close + 1;
        while r + 1 < body_open {
            if code[r].is_punct(b'-') && code[r + 1].is_punct(b'>') {
                info.returns_value = true;
                for t in &code[r + 2..body_open] {
                    if t.is_ident("HashMap") || t.is_ident("HashSet") {
                        info.ret_unordered = true;
                    }
                }
                break;
            }
            r += 1;
        }
        info
    }

    /// One parameter segment `pat : Type` — records the pattern names and
    /// whether the type is an unordered container.
    fn param_segment(&self, lo: usize, hi: usize, info: &mut SigInfo) {
        let code = self.code;
        let mut colon = None;
        let mut depth = 0i32;
        for (k, t) in code.iter().enumerate().take(hi).skip(lo) {
            if t.is_punct(b'<') || t.is_punct(b'(') {
                depth += 1;
            } else if t.is_punct(b'>') || t.is_punct(b')') {
                depth -= 1;
            } else if t.is_punct(b':') && depth <= 0 {
                colon = Some(k);
                break;
            }
        }
        let Some(colon) = colon else { return }; // `self` receivers
        let mut names = Vec::new();
        for t in &code[lo..colon] {
            if t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "mut" | "ref" | "self")
                && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
            {
                names.push(t.text.clone());
            }
        }
        let ty = &code[colon + 1..hi];
        let unordered = ty
            .iter()
            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
        let ref_mut = ty.windows(2).any(|w| {
            w[0].is_punct(b'&') && (w[1].is_ident("mut") || w[1].kind == TokenKind::Lifetime)
        }) && ty.iter().any(|t| t.is_ident("mut"));
        for n in names {
            if unordered {
                info.unordered_params.push(n.clone());
            }
            if ref_mut {
                info.ref_mut_params.push(n.clone());
            }
            info.params.push(n);
        }
    }

    /// Scans a function body for fork, shared-state and allocation sites,
    /// lock acquisitions and call sites.
    fn body(&mut self, lo: usize, hi: usize, def: &mut FuncDef) {
        let code = self.code;
        let mut i = lo;
        while i < hi {
            let tok = code[i];
            // Order-dependent RNG forks: `.fork(` (the order-free variant
            // is `.fork_indexed(`, a different identifier).
            if tok.is_punct(b'.') {
                if let (Some(name), Some(paren)) = (code.get(i + 1), code.get(i + 2)) {
                    if paren.is_punct(b'(')
                        && name.is_ident("fork")
                        && !self.fork_allows.contains(&name.line)
                    {
                        def.fork_sites.push(Site {
                            line: name.line,
                            what: ".fork()".to_string(),
                        });
                    }
                }
            }
            // Heap-allocation sites (for the alloc-in-hot-path rule).
            if tok.kind == TokenKind::Ident
                && matches!(tok.text.as_str(), "vec" | "format")
                && code.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
                && !self.alloc_allows.contains(&tok.line)
            {
                def.alloc_sites.push(Site {
                    line: tok.line,
                    what: format!("{}!", tok.text),
                });
            }
            // Heap-type path constructors: `Vec::new(`, `Box::new(`,
            // `String::from(`, `Vec::with_capacity(`, ….
            if tok.kind == TokenKind::Ident
                && matches!(tok.text.as_str(), "new" | "with_capacity" | "from")
                && code.get(i + 1).is_some_and(|t| t.is_punct(b'('))
                && i >= lo + 3
                && code[i - 1].is_punct(b':')
                && code[i - 2].is_punct(b':')
                && code[i - 3].kind == TokenKind::Ident
                && crate::resource::HEAP_TYPES.contains(&code[i - 3].text.as_str())
                && !self.alloc_allows.contains(&tok.line)
            {
                def.alloc_sites.push(Site {
                    line: tok.line,
                    what: format!("{}::{}", code[i - 3].text, tok.text),
                });
            }
            // Allocating methods, plus `.clone()` on heap-typed receivers.
            if tok.is_punct(b'.') {
                if let (Some(name), Some(paren)) = (code.get(i + 1), code.get(i + 2)) {
                    if paren.is_punct(b'(') && !self.alloc_allows.contains(&name.line) {
                        if crate::resource::ALLOC_METHODS.contains(&name.text.as_str()) {
                            def.alloc_sites.push(Site {
                                line: name.line,
                                what: format!(".{}()", name.text),
                            });
                        } else if name.is_ident("clone")
                            && i > lo
                            && code[i - 1].kind == TokenKind::Ident
                            && self.heap_idents.contains(&code[i - 1].text)
                        {
                            def.alloc_sites.push(Site {
                                line: name.line,
                                what: format!(".clone() of heap-typed `{}`", code[i - 1].text),
                            });
                        }
                    }
                }
            }
            // Shared-mutable-state touches (for the shard-state-escape
            // rule; only flagged inside `ShardModel` impl blocks).
            if tok.kind == TokenKind::Ident && !self.shared_allows.contains(&tok.line) {
                let name = tok.text.as_str();
                let shared_type = matches!(
                    name,
                    "Mutex" | "RwLock" | "OnceLock" | "OnceCell" | "LazyLock"
                ) || (name.starts_with("Atomic") && name.len() > 6)
                    || name == "thread_local";
                if shared_type {
                    def.shared_sites.push(Site {
                        line: tok.line,
                        what: name.to_string(),
                    });
                }
                if tok.is_ident("static") && code.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
                    def.shared_sites.push(Site {
                        line: tok.line,
                        what: "static mut".to_string(),
                    });
                }
            }
            if tok.is_punct(b'.') {
                if let (Some(name), Some(paren)) = (code.get(i + 1), code.get(i + 2)) {
                    if paren.is_punct(b'(')
                        && (name.is_ident("lock") || name.is_ident("try_lock"))
                        && !self.shared_allows.contains(&name.line)
                    {
                        def.shared_sites.push(Site {
                            line: name.line,
                            what: format!(".{}()", name.text),
                        });
                    }
                }
            }
            // Lock acquisitions: `.field.lock()` / `.read()` / `.write()`.
            // (`try_lock` is non-blocking and cannot deadlock.)
            if tok.is_punct(b'.') {
                if let (Some(field), Some(dot2), Some(verb), Some(paren)) = (
                    code.get(i + 1),
                    code.get(i + 2),
                    code.get(i + 3),
                    code.get(i + 4),
                ) {
                    if field.kind == TokenKind::Ident
                        && dot2.is_punct(b'.')
                        && paren.is_punct(b'(')
                        && (verb.is_ident("lock")
                            || verb.is_ident("read")
                            || verb.is_ident("write"))
                    {
                        if let Some(decl) = self
                            .out
                            .locks
                            .iter()
                            .find(|l| l.field == field.text && l.file == self.rel_path)
                        {
                            def.events.push(Event::Acquire {
                                lock: decl.id(),
                                line: verb.line,
                            });
                        }
                    }
                }
            }
            // Call sites: `name (` that is not a macro, definition or
            // control keyword. Method calls are `. name (`.
            if tok.kind == TokenKind::Ident
                && code.get(i + 1).is_some_and(|t| t.is_punct(b'('))
                && !CALL_EXCLUDED.contains(&tok.text.as_str())
            {
                let prev = if i > lo { Some(code[i - 1]) } else { None };
                let prev_is_macro_bang = prev.is_some_and(|t| t.is_punct(b'!'));
                let prev_is_fn = prev.is_some_and(|t| t.is_ident("fn"));
                if !prev_is_macro_bang && !prev_is_fn {
                    let is_method = prev.is_some_and(|t| t.is_punct(b'.'));
                    let mut qualifiers = Vec::new();
                    if !is_method {
                        // Walk `seg ::` pairs backwards.
                        let mut k = i;
                        while k >= 2
                            && code[k - 1].is_punct(b':')
                            && k >= 3
                            && code[k - 2].is_punct(b':')
                            && code[k - 3].kind == TokenKind::Ident
                        {
                            qualifiers.insert(0, code[k - 3].text.clone());
                            k -= 3;
                        }
                    }
                    def.events.push(Event::Call(CallSite {
                        qualifiers,
                        name: tok.text.clone(),
                        is_method,
                        line: tok.line,
                    }));
                }
            }
            i += 1;
        }
    }

    /// Segments a function body into the flat statement list of the order
    /// IR. Statements split at `;`, `{` and `}` outside parens/brackets, so
    /// a `for` header is its own statement and loop/match bodies contribute
    /// their statements at the same (flattened) level.
    fn order_ir(&self, lo: usize, hi: usize, returns_value: bool) -> Vec<OrderStmt> {
        let code = self.code;
        let mut stmts = Vec::new();
        let mut s = lo;
        let mut depth = 0i32;
        let mut i = lo;
        while i < hi {
            let t = code[i];
            if t.is_punct(b'(') || t.is_punct(b'[') {
                depth += 1;
            } else if t.is_punct(b')') || t.is_punct(b']') {
                depth -= 1;
            } else if depth <= 0 && (t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}')) {
                if i > s {
                    if let Some(st) = self.order_stmt(s, i) {
                        stmts.push(st);
                    }
                }
                s = i + 1;
            }
            i += 1;
        }
        if hi > s {
            if let Some(mut st) = self.order_stmt(s, hi) {
                // A trailing segment without `;` is the tail expression.
                st.is_tail = returns_value;
                stmts.push(st);
            }
        }
        stmts
    }

    /// Parses one statement segment into its [`OrderStmt`] summary.
    fn order_stmt(&self, lo: usize, hi: usize) -> Option<OrderStmt> {
        let code = self.code;
        let mut st = OrderStmt {
            line: code[lo].line,
            ..OrderStmt::default()
        };
        let mut i = lo;
        if code[i].is_ident("return") {
            st.is_return = true;
            i += 1;
        } else if code[i].is_ident("let") {
            st.is_let = true;
            i += 1;
            // Pattern runs to the `:` annotation or `=` at nesting depth 0.
            let pat_start = i;
            let mut depth = 0i32;
            while i < hi {
                let t = code[i];
                if t.is_punct(b'(') || t.is_punct(b'[') || t.is_punct(b'<') {
                    depth += 1;
                } else if t.is_punct(b')') || t.is_punct(b']') || t.is_punct(b'>') {
                    depth -= 1;
                } else if depth <= 0 && (t.is_punct(b':') || t.is_punct(b'=')) {
                    break;
                }
                i += 1;
            }
            for t in &code[pat_start..i.min(hi)] {
                if t.kind == TokenKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    st.dests.push(t.text.clone());
                }
            }
            if i < hi && code[i].is_punct(b':') {
                i += 1;
                let mut depth = 0i32;
                while i < hi {
                    let t = code[i];
                    if t.is_punct(b'<') {
                        depth += 1;
                    } else if t.is_punct(b'>') {
                        depth -= 1;
                    } else if depth <= 0 && t.is_punct(b'=') {
                        break;
                    }
                    if t.kind == TokenKind::Ident {
                        st.dest_type.push(t.text.clone());
                    }
                    i += 1;
                }
            }
            if i < hi && code[i].is_punct(b'=') {
                i += 1;
            }
        } else if code[i].is_ident("for") {
            i += 1;
            let pat_start = i;
            while i < hi && !code[i].is_ident("in") {
                i += 1;
            }
            for t in &code[pat_start..i.min(hi)] {
                if t.kind == TokenKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    && !t.text.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    st.for_vars.push(t.text.clone());
                }
            }
            if i < hi {
                i += 1;
            }
        } else {
            // Reassignment: `place = …` / `*place = …` / `place += …`.
            let mut k = i;
            if code[k].is_punct(b'*') {
                k += 1;
            }
            let mut path = String::new();
            while k < hi && code[k].kind == TokenKind::Ident {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(&code[k].text);
                if code.get(k + 1).is_some_and(|t| t.is_punct(b'.'))
                    && code.get(k + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    k += 2;
                } else {
                    k += 1;
                    break;
                }
            }
            if !path.is_empty() && k < hi {
                let t = code[k];
                let next_eq = code.get(k + 1).is_some_and(|t| t.is_punct(b'='));
                let next2_eq = code.get(k + 2).is_some_and(|t| t.is_punct(b'='));
                if t.is_punct(b'=') && !next_eq {
                    st.dests.push(path);
                    i = k + 1;
                } else if matches!(t.kind, TokenKind::Punct(c) if b"+-*/%&|^".contains(&c))
                    && next_eq
                    && !next2_eq
                {
                    st.compound_assign = true;
                    i = k + 2;
                }
            }
        }
        self.expr_scan(i, hi, &mut st);
        Some(st)
    }

    /// Scans an expression span for reads, method-chain uses, calls and
    /// path qualifiers.
    fn expr_scan(&self, lo: usize, hi: usize, st: &mut OrderStmt) {
        let code = self.code;
        let mut i = lo;
        while i < hi {
            let t = code[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            let prev_dot = i > 0 && code[i - 1].is_punct(b'.');
            if prev_dot {
                // Method use (with optional turbofish) or field access.
                let mut j = i + 1;
                let mut fish = Vec::new();
                if code.get(j).is_some_and(|t| t.is_punct(b':'))
                    && code.get(j + 1).is_some_and(|t| t.is_punct(b':'))
                    && code.get(j + 2).is_some_and(|t| t.is_punct(b'<'))
                {
                    let close = self.close_of(j + 2, b'<', b'>');
                    for t in code.iter().take(close.min(hi)).skip(j + 3) {
                        if t.kind == TokenKind::Ident {
                            fish.push(t.text.clone());
                        }
                    }
                    j = close + 1;
                }
                if code.get(j).is_some_and(|t| t.is_punct(b'(')) {
                    st.methods.push(MethodUse {
                        name: t.text.clone(),
                        recv: self.recv_root(i - 1, lo),
                        turbofish: fish,
                        line: t.line,
                    });
                }
                i = j;
                continue;
            }
            let name = t.text.as_str();
            if ORDER_KEYWORDS.contains(&name) {
                // `self.field` reads root through the keyword filter.
                if name == "self"
                    && code.get(i + 1).is_some_and(|t| t.is_punct(b'.'))
                    && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                    && !code.get(i + 3).is_some_and(|t| t.is_punct(b'('))
                {
                    st.reads.push(format!("self.{}", code[i + 2].text));
                }
                i += 1;
                continue;
            }
            // Macro names are not reads.
            if code.get(i + 1).is_some_and(|t| t.is_punct(b'!')) {
                i += 2;
                continue;
            }
            // Path qualifier (`HashMap::new` → qualifier `HashMap`).
            if code.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                && code.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            {
                st.quals.push(t.text.clone());
                i += 1;
                continue;
            }
            // Bare / path-final call.
            if code.get(i + 1).is_some_and(|t| t.is_punct(b'(')) {
                if !CALL_EXCLUDED.contains(&name)
                    && !name.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    st.calls.push((t.text.clone(), t.line));
                }
                i += 1;
                continue;
            }
            if !name.starts_with(|c: char| c.is_ascii_uppercase()) {
                st.reads.push(t.text.clone());
            }
            i += 1;
        }
    }

    /// The dotted receiver root ending at the `.` at `dot` (`m`,
    /// `self.map`), or `None` when the chain continues from a call or
    /// index result.
    fn recv_root(&self, dot: usize, lo: usize) -> Option<String> {
        let code = self.code;
        let mut parts = Vec::new();
        let mut k = dot;
        while k > lo && code[k].is_punct(b'.') && code[k - 1].kind == TokenKind::Ident {
            parts.push(code[k - 1].text.clone());
            if k >= 2 && code[k - 2].is_punct(b'.') {
                k -= 2;
            } else {
                break;
            }
        }
        if parts.is_empty() {
            return None;
        }
        parts.reverse();
        Some(parts.join("."))
    }
}

/// Keywords and binding forms the order-IR expression scan never treats as
/// variable reads.
const ORDER_KEYWORDS: [&str; 34] = [
    "if", "else", "match", "while", "loop", "for", "in", "let", "mut", "ref", "return", "break",
    "continue", "as", "move", "fn", "impl", "pub", "use", "where", "dyn", "box", "true", "false",
    "self", "Self", "crate", "super", "static", "const", "unsafe", "async", "await", "yield",
];

/// Identifiers that look like calls syntactically but are not function
/// calls the graph should chase: control keywords and common tuple-struct
/// or enum constructors from `std` whose payloads cannot panic.
const CALL_EXCLUDED: [&str; 12] = [
    "if", "while", "match", "for", "return", "loop", "else", "in", "move", "Some", "Ok", "Err",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols(src: &str) -> FileSymbols {
        collect(
            "testcrate",
            "testmod",
            "crates/testcrate/src/testmod.rs",
            src,
        )
    }

    #[test]
    fn records_free_and_impl_functions() {
        let s = symbols(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             impl std::fmt::Display for S { fn fmt(&self) {} }",
        );
        let names: Vec<(&str, Option<&str>)> = s
            .funcs
            .iter()
            .map(|f| (f.name.as_str(), f.self_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("free", None), ("method", Some("S")), ("fmt", Some("S")),]
        );
    }

    #[test]
    fn cfg_test_functions_are_invisible() {
        let s = symbols("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }");
        assert_eq!(s.funcs.len(), 1);
        assert_eq!(s.funcs[0].name, "lib");
    }

    #[test]
    fn calls_paths_and_methods() {
        let s = symbols(
            "fn f() {\n\
             helper();\n\
             masque::establish(1);\n\
             x.handle(2);\n\
             Ipv4Net::new(a, b);\n\
             vec![1];\n\
             }",
        );
        let calls: Vec<(Vec<String>, String, bool)> = s.funcs[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some((c.qualifiers.clone(), c.name.clone(), c.is_method)),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            vec![
                (vec![], "helper".to_string(), false),
                (vec!["masque".to_string()], "establish".to_string(), false),
                (vec![], "handle".to_string(), true),
                (vec!["Ipv4Net".to_string()], "new".to_string(), false),
            ]
        );
    }

    #[test]
    fn locks_declared_and_acquired() {
        let s = symbols(
            "struct S { counter: Mutex<u64>, plain: u64, map: RwLock<Map> }\n\
             impl S {\n\
             fn f(&self) { let g = self.counter.lock(); self.map.read(); }\n\
             fn nb(&self) { self.counter.try_lock(); }\n\
             }",
        );
        assert_eq!(s.locks.len(), 2);
        let acquires: Vec<&str> = s.funcs[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, .. } => Some(lock.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(acquires, vec!["S.counter", "S.map"]);
        // try_lock is not an acquisition event.
        assert!(s.funcs[1]
            .events
            .iter()
            .all(|e| !matches!(e, Event::Acquire { .. })));
    }

    #[test]
    fn trait_methods_recorded_with_default_bodies() {
        let s = symbols(
            "trait Server {\n\
             fn handle(&self, b: &[u8]) -> u8;\n\
             fn twice(&self, b: &[u8]) -> u8 { self.handle(b) }\n\
             }",
        );
        assert_eq!(s.funcs.len(), 1);
        assert_eq!(s.funcs[0].name, "twice");
        assert!(s.funcs[0].in_trait);
    }
}
