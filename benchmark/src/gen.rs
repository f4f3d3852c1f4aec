//! Seeded input generators: each workload's schema, preload, timed op
//! stream and the replies the server must give.
//!
//! The program under test receives only what is generated here, as
//! surface-language text or CSV. The generators keep their own model of
//! what was told (who calls whom, which crime has a site), so every
//! expected reply is ground truth computed without the program's help:
//! none of the three schemas lets a rule or a `SAME-AS` add members to a
//! concept the queries ask for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The four workloads, named as `BENCHMARK.json` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireMixed,
    WireReadLarge,
    WireWriteRules,
    BulkReopen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireMixed,
        Workload::WireReadLarge,
        Workload::WireWriteRules,
        Workload::BulkReopen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireMixed => "wire-mixed",
            Workload::WireReadLarge => "wire-read-large",
            Workload::WireWriteRules => "wire-write-rules",
            Workload::BulkReopen => "bulk-reopen",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Frozen operation counts. `full` is what `BENCHMARK.json` records;
/// `smoke` exercises the same code on tiny inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// wire-mixed: preloaded functions / modules, timed iterations
    /// (create + assert + retrieve each; a multiple of [`MIXED_WINDOW`]).
    pub mixed_functions: usize,
    pub mixed_modules: usize,
    pub mixed_iterations: usize,
    /// wire-read-large: preloaded functions / modules, timed reads (whole
    /// passes over the 64 queries).
    pub large_functions: usize,
    pub large_modules: usize,
    pub large_reads: usize,
    /// wire-write-rules: preloaded crimes and timed crimes, per tenant
    /// (whole blocks of [`CRIME_BLOCK`]).
    pub rules_preload: usize,
    pub rules_crimes: usize,
    /// bulk-reopen: rows of the timed CSV and of the warm-up CSV.
    pub bulk_rows: usize,
    pub bulk_warm_rows: usize,
    /// Iterations of the layer probe stream in the traced pass.
    pub probe_iterations: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        mixed_functions: 2_000,
        mixed_modules: 80,
        mixed_iterations: 160,
        large_functions: 20_000,
        large_modules: 800,
        large_reads: 512,
        rules_preload: 1_000,
        rules_crimes: 1_000,
        bulk_rows: 10_000,
        bulk_warm_rows: 2_000,
        probe_iterations: 12,
    };

    pub const SMOKE: Sizes = Sizes {
        mixed_functions: 120,
        mixed_modules: 8,
        mixed_iterations: 24,
        large_functions: 400,
        large_modules: 16,
        large_reads: 64,
        rules_preload: 40,
        rules_crimes: 30,
        bulk_rows: 2_000,
        bulk_warm_rows: 200,
        probe_iterations: 4,
    };
}

/// Request classes: what the latency of a round trip is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Create,
    Write,
    Retract,
    Read,
    Ingest,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Create,
        Class::Write,
        Class::Retract,
        Class::Read,
        Class::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Create => "create",
            Class::Write => "write",
            Class::Retract => "retract",
            Class::Read => "read",
            Class::Ingest => "ingest",
        }
    }
}

/// What the reply to a request must be for the request to count as
/// answered correctly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `ok:true`, payload unchecked (creates, asserts, retractions).
    Ok,
    /// `ok:false`: the update is incoherent and must be refused.
    Refused,
    /// This exact reply line.
    Reply(String),
    /// A bulk report accepting exactly this many rows and rejecting none.
    Accepted(usize),
}

/// One request: a surface form for the line protocol, or a CSV body for
/// `POST /ingest` when the class is [`Class::Ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    /// Ops of one group depend on each other (create before assert). A
    /// window is whole groups, so windows may be dealt to different
    /// clients.
    pub group: u32,
    pub text: String,
    pub expect: Expect,
}

/// Group of a set-up's schema forms, which a tenant takes once, and of its
/// preload forms, which a tenant shared by two streams takes from both.
pub const SCHEMA: u32 = 0;
const PRELOAD: u32 = 1;

impl Op {
    fn new(class: Class, group: u32, text: String, expect: Expect) -> Op {
        Op {
            class,
            group,
            text,
            expect,
        }
    }
}

/// Forms for the layer probe of the traced pass: one individual created,
/// described, queried for and retracted again, `{i}` standing for the
/// iteration number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    pub create: String,
    pub assert: String,
    pub read: String,
    pub retract: String,
}

impl Probe {
    pub fn forms(&self, i: usize) -> [(Class, String); 4] {
        let at = |s: &str| s.replace("{i}", &i.to_string());
        [
            (Class::Create, at(&self.create)),
            (Class::Write, at(&self.assert)),
            (Class::Read, at(&self.read)),
            (Class::Retract, at(&self.retract)),
        ]
    }
}

/// Everything one client sends to one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub tenant: String,
    /// Schema and preload, sent before timing starts.
    pub setup: Vec<Op>,
    /// The timed requests, in order.
    pub ops: Vec<Op>,
    /// A read with a known answer, asked of the restarted server.
    pub reopen_check: Op,
    pub probe: Probe,
    /// An individual of the preload, for a paged store to hydrate.
    pub sample_individual: String,
    /// Options of `POST /ingest` for this stream's ingest ops; the runner
    /// adds the tenant.
    pub ingest_options: String,
}

impl Stream {
    /// Bytes of user data this stream stores in its tenant: the forms and
    /// CSV that change it. Reads and refused updates store nothing.
    pub fn user_bytes(&self) -> u64 {
        self.setup
            .iter()
            .filter(|op| op.class != Class::Ingest)
            .chain(&self.ops)
            .filter(|op| op.class != Class::Read && op.expect != Expect::Refused)
            .map(|op| op.text.len() as u64)
            .sum()
    }
}

/// A workload's generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    pub streams: Vec<Stream>,
    /// The class whose median round trip is reported as `p50_us`.
    pub primary: Class,
    /// Requests per pass. A stream is whole passes, and every pass holds
    /// the same requests — the seed picks names and order — so the run can
    /// report its best pass: the one the host left alone.
    pub pass: usize,
    /// Requests per window, a divisor of `pass`: windows at the same place
    /// in their passes hold the same requests too, so the best pass may
    /// be put together from the best window seen at each place.
    pub window: usize,
}

pub fn plan(workload: Workload, seed: u64, sizes: &Sizes) -> Plan {
    match workload {
        Workload::WireMixed => mixed(seed, sizes),
        Workload::WireReadLarge => read_large(seed, sizes),
        Workload::WireWriteRules => write_rules(seed, sizes),
        Workload::BulkReopen => bulk_reopen(seed, sizes),
    }
}

/// A seeded permutation in place.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn individuals_reply(names: &[String]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "{{\"ok\":true,\"result\":{{\"type\":\"individuals\",\"names\":[{}]}}}}",
        quoted.join(",")
    )
}

// ---- software information system (wire-mixed, wire-read-large) -----------

const MAX_CALLS: usize = 6;
const LADDER: usize = 8;
/// Kinds of query with a short answer; see `Software::draw_selective`.
const SELECTIVE_KINDS: usize = 4;
/// Iterations in a window of `wire-mixed`: one read of each selective kind.
pub const MIXED_WINDOW: usize = SELECTIVE_KINDS;
/// Functions a function created by `wire-mixed` calls.
const NEW_CALLS: usize = 3;

/// What the generator told the server about one function.
#[derive(Debug, Clone)]
struct Func {
    name: String,
    module: usize,
    /// Distinct callees, as indices into `Software::funcs`.
    calls: Vec<usize>,
    /// Told `(AT-MOST 0 calls)`.
    leaf: bool,
    loc: u32,
}

struct Software {
    /// `imports[m]` is the module `mod-m` imports, if any.
    imports: Vec<Option<usize>>,
    funcs: Vec<Func>,
}

/// An ad-hoc query concept over the software schema, and the test the
/// generator's model answers it with.
#[derive(Debug, Clone, Copy)]
enum Query {
    Functions,
    AtLeastCalls(usize),
    Leaf,
    DefinedIn(usize),
    Calls(usize),
    Loc(u32),
    AtLeastCallsIn(usize, usize),
    ConnectedModules,
}

impl Query {
    fn form(self) -> String {
        let concept = match self {
            Query::Functions => "FUNCTION".to_owned(),
            Query::AtLeastCalls(k) => format!("(AND FUNCTION (AT-LEAST {k} calls))"),
            Query::Leaf => "(AND FUNCTION (AT-MOST 0 calls))".to_owned(),
            Query::DefinedIn(m) => format!("(AND FUNCTION (FILLS defined-in mod-{m}))"),
            Query::Calls(f) => format!("(AND FUNCTION (FILLS calls fn-{f}))"),
            Query::Loc(n) => format!("(AND FUNCTION (FILLS loc {n}))"),
            Query::AtLeastCallsIn(k, m) => {
                format!("(AND FUNCTION (AT-LEAST {k} calls) (FILLS defined-in mod-{m}))")
            }
            Query::ConnectedModules => "(AND MODULE (AT-LEAST 1 imports))".to_owned(),
        };
        format!("(retrieve {concept})")
    }

    fn holds(self, f: &Func) -> bool {
        match self {
            Query::Functions => true,
            Query::AtLeastCalls(k) => f.calls.len() >= k,
            Query::Leaf => f.leaf,
            Query::DefinedIn(m) => f.module == m,
            Query::Calls(g) => f.calls.contains(&g),
            Query::Loc(n) => f.loc == n,
            Query::AtLeastCallsIn(k, m) => f.calls.len() >= k && f.module == m,
            Query::ConnectedModules => false,
        }
    }

    /// Change `f`, which calls [`NEW_CALLS`] functions, so that it is an
    /// answer to this selective query.
    fn admit(self, f: &mut Func) {
        match self {
            Query::DefinedIn(m) => f.module = m,
            Query::Loc(n) => f.loc = n,
            Query::Calls(g) if !f.calls.contains(&g) => f.calls[0] = g,
            Query::AtLeastCallsIn(k, m) if k <= f.calls.len() => f.module = m,
            _ => {}
        }
    }
}

impl Software {
    fn generate(rng: &mut StdRng, modules: usize, functions: usize) -> Software {
        let imports = (0..modules)
            .map(|m| (m > 0 && rng.gen_bool(0.7)).then(|| rng.gen_range(0..m)))
            .collect();
        let mut sw = Software {
            imports,
            funcs: Vec::with_capacity(functions),
        };
        for f in 0..functions {
            let func = sw.draw_function(rng, format!("fn-{f}"), modules, f);
            sw.funcs.push(func);
        }
        sw
    }

    /// One function calling up to [`MAX_CALLS`] of the first `callable`
    /// functions; half of those that call nothing are told to be leaves.
    fn draw_function(
        &self,
        rng: &mut StdRng,
        name: String,
        modules: usize,
        callable: usize,
    ) -> Func {
        let mut calls: Vec<usize> = Vec::new();
        if callable > 0 {
            for _ in 0..rng.gen_range(0..=MAX_CALLS) {
                let callee = rng.gen_range(0..callable);
                if !calls.contains(&callee) {
                    calls.push(callee);
                }
            }
        }
        Func {
            name,
            module: rng.gen_range(0..modules),
            leaf: calls.is_empty() && rng.gen_bool(0.5),
            calls,
            loc: rng.gen_range(5..500),
        }
    }

    fn schema() -> Vec<String> {
        let mut forms: Vec<String> = ["defined-in", "calls", "imports", "loc"]
            .iter()
            .map(|r| format!("(define-role {r})"))
            .collect();
        forms.push("(define-concept SOFTWARE-OBJECT (PRIMITIVE THING software-object))".into());
        for kind in ["MODULE", "FUNCTION", "FILE"] {
            forms.push(format!(
                "(define-concept {kind} (DISJOINT-PRIMITIVE SOFTWARE-OBJECT sw-kind {}))",
                kind.to_lowercase()
            ));
        }
        forms.push(
            "(define-concept DEFINED-FUNCTION (AND FUNCTION (AT-LEAST 1 defined-in)))".into(),
        );
        forms.push("(define-concept LEAF-FUNCTION (AND FUNCTION (AT-MOST 0 calls)))".into());
        forms.push("(define-concept CONNECTED-MODULE (AND MODULE (AT-LEAST 1 imports)))".into());
        for k in 1..=LADDER {
            forms.push(format!(
                "(define-concept CALLER-{k} (AND FUNCTION (AT-LEAST {k} calls)))"
            ));
        }
        forms
    }

    /// Schema forms, then the individuals as four `(bulk-load …)` forms:
    /// one fsync each instead of one per told fact. Every row refers only
    /// to individuals of earlier rows, so arena order — the order replies
    /// list names in — is modules, then functions, by number.
    fn setup(&self) -> Vec<Op> {
        let mut ops: Vec<Op> = Software::schema()
            .into_iter()
            .map(|f| Op::new(Class::Write, SCHEMA, f, Expect::Ok))
            .collect();
        let mut bulk = |head: &str, rows: Vec<String>| {
            if !rows.is_empty() {
                let n = rows.len();
                let text = format!("(bulk-load {head} {})", rows.join(" "));
                ops.push(Op::new(Class::Write, PRELOAD, text, Expect::Accepted(n)));
            }
        };
        bulk(
            "(into MODULE) (roles imports)",
            (0..self.imports.len())
                .map(|m| match self.imports[m] {
                    Some(t) => format!("(row mod-{m} mod-{t})"),
                    None => format!("(row mod-{m} _)"),
                })
                .collect(),
        );
        let callee = |c: Option<&usize>| c.map_or("_".to_owned(), |&c| self.funcs[c].name.clone());
        bulk(
            "(into FUNCTION) (roles defined-in loc calls)",
            self.funcs
                .iter()
                .map(|f| {
                    format!(
                        "(row {} mod-{} {} {})",
                        f.name,
                        f.module,
                        f.loc,
                        callee(f.calls.first())
                    )
                })
                .collect(),
        );
        bulk(
            "(into FUNCTION) (roles calls)",
            self.funcs
                .iter()
                .flat_map(|f| {
                    f.calls
                        .iter()
                        .skip(1)
                        .map(|c| format!("(row {} {})", f.name, callee(Some(c))))
                })
                .collect(),
        );
        bulk(
            "(into (AND FUNCTION (AT-MOST 0 calls))) (roles loc)",
            self.funcs
                .iter()
                .filter(|f| f.leaf)
                .map(|f| format!("(row {} {})", f.name, f.loc))
                .collect(),
        );
        ops
    }

    /// A pool of `n` queries of graded selectivity: the shape of the pool
    /// is fixed, the seed picks which module, callee or size they name.
    fn queries(&self, rng: &mut StdRng, n: usize) -> Vec<Query> {
        let mut pool = vec![Query::Functions, Query::Leaf, Query::ConnectedModules];
        pool.extend((1..=MAX_CALLS).map(Query::AtLeastCalls));
        let mut asked: Vec<String> = pool.iter().map(|q| q.form()).collect();
        let mut kind = 0;
        while pool.len() < n {
            let q = self.draw_selective(rng, kind % SELECTIVE_KINDS);
            // The pool holds distinct queries; a repeat is drawn again.
            if !asked.contains(&q.form()) {
                asked.push(q.form());
                pool.push(q);
                kind += 1;
            }
        }
        pool.truncate(n);
        pool
    }

    /// A query with a short answer: by module, by callee, by size, or by
    /// fan-out within a module.
    fn draw_selective(&self, rng: &mut StdRng, kind: usize) -> Query {
        let modules = self.imports.len();
        match kind {
            0 => Query::DefinedIn(rng.gen_range(0..modules)),
            1 => Query::Calls(rng.gen_range(0..self.funcs.len())),
            2 => Query::Loc(rng.gen_range(5..500)),
            _ => Query::AtLeastCallsIn(rng.gen_range(1..=3), rng.gen_range(0..modules)),
        }
    }

    /// `per_kind` distinct queries of each selective kind.
    fn selective_queries(
        &self,
        rng: &mut StdRng,
        per_kind: usize,
    ) -> [Vec<Query>; SELECTIVE_KINDS] {
        let mut pools: [Vec<Query>; SELECTIVE_KINDS] = Default::default();
        for (kind, pool) in pools.iter_mut().enumerate() {
            let mut asked: Vec<String> = Vec::new();
            while pool.len() < per_kind {
                let q = self.draw_selective(rng, kind);
                if !asked.contains(&q.form()) {
                    asked.push(q.form());
                    pool.push(q);
                }
            }
        }
        pools
    }

    fn answer(&self, q: Query) -> Vec<String> {
        if let Query::ConnectedModules = q {
            return (0..self.imports.len())
                .filter(|&m| self.imports[m].is_some())
                .map(|m| format!("mod-{m}"))
                .collect();
        }
        self.funcs
            .iter()
            .filter(|f| q.holds(f))
            .map(|f| f.name.clone())
            .collect()
    }

    fn read(&self, q: Query, group: u32) -> Op {
        let reply = individuals_reply(&self.answer(q));
        Op::new(Class::Read, group, q.form(), Expect::Reply(reply))
    }

    fn probe() -> Probe {
        let desc = "(AND FUNCTION (FILLS defined-in mod-0) (FILLS calls fn-0 fn-1))";
        Probe {
            create: "(create-ind probe-{i})".into(),
            assert: format!("(assert-ind probe-{{i}} {desc})"),
            read: "(retrieve (AND FUNCTION (FILLS defined-in mod-0) (AT-LEAST 2 calls)))".into(),
            retract: format!("(retract-ind probe-{{i}} {desc})"),
        }
    }

    fn stream(self, tenant: &str, ops: Vec<Op>) -> Stream {
        Stream {
            tenant: tenant.to_owned(),
            setup: self.setup(),
            ops,
            reopen_check: self.read(Query::AtLeastCalls(MAX_CALLS), 0),
            probe: Software::probe(),
            sample_individual: self.funcs[self.funcs.len() / 2].name.clone(),
            ingest_options: String::new(),
        }
    }
}

/// create, assert, retrieve — so every read follows a write and cuts a
/// snapshot, and every write drops one. The reads come from a pool of 32
/// ad-hoc queries with short answers, eight of each selective kind, and
/// a window is four iterations asking one of each kind: the snapshot cut
/// is most of every round trip, and every window costs the same.
fn mixed(seed: u64, sizes: &Sizes) -> Plan {
    assert_eq!(sizes.mixed_iterations % MIXED_WINDOW, 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = Software::generate(&mut rng, sizes.mixed_modules, sizes.mixed_functions);
    let pools = sw.selective_queries(&mut rng, 32 / SELECTIVE_KINDS);
    let mut kinds: Vec<usize> = Vec::new();
    let mut ops = Vec::with_capacity(sizes.mixed_iterations * 3);
    for i in 0..sizes.mixed_iterations {
        // Each window asks the four kinds in an order of its own.
        if kinds.is_empty() {
            kinds = (0..SELECTIVE_KINDS).collect();
            shuffle(&mut rng, &mut kinds);
        }
        let pool = &pools[kinds.pop().expect("refilled above")];
        let query = pool[rng.gen_range(0..pool.len())];
        let group = i as u32;
        let name = format!("nf-{i}");
        // A function created here is told the same number of things as
        // every other, and calls preloaded functions only: windows dealt
        // to two clients must not depend on each other.
        let mut calls: Vec<usize> = Vec::new();
        while calls.len() < NEW_CALLS {
            let callee = rng.gen_range(0..sizes.mixed_functions);
            if !calls.contains(&callee) {
                calls.push(callee);
            }
        }
        let mut f = Func {
            name: name.clone(),
            module: rng.gen_range(0..sizes.mixed_modules),
            calls,
            leaf: false,
            loc: rng.gen_range(5..500),
        };
        // Half the new functions are made an answer to the read that
        // follows, so a snapshot that misses the write just acknowledged
        // gives a wrong reply.
        if rng.gen_bool(0.5) {
            query.admit(&mut f);
        }
        let mut desc = format!(
            "(AND FUNCTION (FILLS defined-in mod-{}) (FILLS loc {}) (FILLS calls",
            f.module, f.loc
        );
        for &c in &f.calls {
            let _ = write!(desc, " {}", sw.funcs[c].name);
        }
        desc.push_str("))");
        sw.funcs.push(f);
        ops.push(Op::new(
            Class::Create,
            group,
            format!("(create-ind {name})"),
            Expect::Ok,
        ));
        ops.push(Op::new(
            Class::Write,
            group,
            format!("(assert-ind {name} {desc})"),
            Expect::Ok,
        ));
        ops.push(sw.read(query, group));
    }
    // The reopen check must see every function of the timed section; the
    // set-up forms are those of the preload only.
    let preload = Software {
        imports: sw.imports.clone(),
        funcs: sw.funcs[..sizes.mixed_functions].to_vec(),
    };
    let mut stream = preload.stream("mixed", ops);
    stream.reopen_check = sw.read(Query::AtLeastCalls(MAX_CALLS), 0);
    Plan {
        workload: Workload::WireMixed,
        streams: vec![stream],
        primary: Class::Read,
        pass: 3 * MIXED_WINDOW,
        window: 3 * MIXED_WINDOW,
    }
}

/// Read-only over a large tenant: the snapshot is cut once.
fn read_large(seed: u64, sizes: &Sizes) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let sw = Software::generate(&mut rng, sizes.large_modules, sizes.large_functions);
    let pool = sw.queries(&mut rng, 64);
    let reads: Vec<Op> = pool
        .iter()
        .enumerate()
        .map(|(i, &q)| sw.read(q, i as u32))
        .collect();
    // Whole passes over the pool in one seeded order, so every pass times
    // the same mix of small and large replies, and so does every eighth
    // of a pass against the same eighth of the others.
    assert_eq!(sizes.large_reads % reads.len(), 0);
    let mut order: Vec<usize> = (0..reads.len()).collect();
    shuffle(&mut rng, &mut order);
    let ops: Vec<Op> = (0..sizes.large_reads)
        .map(|k| reads[order[k % order.len()]].clone())
        .collect();
    let mut stream = sw.stream("large", ops);
    // One untimed pass over the pool: the snapshot is cut and every
    // distinct answer is checked before timing starts.
    stream.setup.extend(reads);
    Plan {
        workload: Workload::WireReadLarge,
        streams: vec![stream],
        primary: Class::Read,
        pass: 64,
        window: 8,
    }
}

// ---- the crime database of the paper's section 4 (wire-write-rules) ------

fn crime_schema() -> Vec<String> {
    let mut forms: Vec<String> = ["perpetrator", "victim", "jobs", "typical-suspect"]
        .iter()
        .map(|r| format!("(define-role {r})"))
        .collect();
    forms.extend(
        [
            "(define-attribute site)",
            "(define-attribute domicile)",
            "(define-concept PERSON (PRIMITIVE THING person))",
            "(define-concept ADULT (PRIMITIVE PERSON adult))",
            "(define-concept CRIME (PRIMITIVE (AND (AT-LEAST 1 perpetrator) (ALL perpetrator PERSON) \
             (AT-LEAST 1 victim) (AT-LEAST 1 site) (AT-MOST 1 site)) crime))",
            "(define-concept DOMESTIC-CRIME (AND CRIME (AT-MOST 1 perpetrator) \
             (SAME-AS (site) (perpetrator domicile))))",
            "(assert-rule DOMESTIC-CRIME (ALL typical-suspect (AND ADULT (AT-MOST 0 jobs))))",
        ]
        .map(String::from),
    );
    forms
}

/// Crimes in a block of `wire-write-rules`, its window: half of them
/// domestic (create and six assertions), half open (create and three),
/// then the retractions and one refused update — 60 requests, one in
/// fifteen a retraction, one in sixty refused, whatever the seed.
pub const CRIME_BLOCK: usize = 10;
const BLOCK_RETRACTIONS: usize = 4;
const BLOCK_REQUESTS: usize = CRIME_BLOCK / 2 * (7 + 4) + BLOCK_RETRACTIONS + 1;

/// One writer on its own tenant. Names carry the stream's prefix, so two
/// streams can also be sent to one tenant without colliding.
fn crime_stream(rng: &mut StdRng, p: &str, sizes: &Sizes) -> Stream {
    let mut setup: Vec<Op> = crime_schema()
        .into_iter()
        .map(|f| Op::new(Class::Write, SCHEMA, f, Expect::Ok))
        .collect();
    // Crimes told to be domestic, in the order they were created, and
    // crimes with a known site.
    let mut domestic: Vec<String> = Vec::new();
    let mut sited: Vec<String> = Vec::new();
    // Preloaded crimes all have a site; every second one is domestic.
    if sizes.rules_preload > 0 {
        let mut rows = String::new();
        let mut domestic_rows = String::new();
        for k in 0..sizes.rules_preload {
            let _ = write!(
                rows,
                " (row {p}-old-{k} {p}-oldvictim-{k} {p}-oldsuspect-{k} {p}-oldhome-{k})"
            );
            sited.push(format!("{p}-old-{k}"));
            if k % 2 == 0 {
                let _ = write!(domestic_rows, " (row {p}-old-{k} {p}-oldhome-{k})");
                domestic.push(format!("{p}-old-{k}"));
            }
        }
        setup.push(Op::new(
            Class::Write,
            PRELOAD,
            format!("(bulk-load (into CRIME) (roles victim perpetrator site){rows})"),
            Expect::Accepted(sizes.rules_preload),
        ));
        setup.push(Op::new(
            Class::Write,
            PRELOAD,
            format!("(bulk-load (into DOMESTIC-CRIME) (roles site){domestic_rows})"),
            Expect::Accepted(domestic.len()),
        ));
    }

    assert_eq!(sizes.rules_crimes % CRIME_BLOCK, 0);
    let mut ops: Vec<Op> = Vec::new();
    // Domestic crimes of the timed section whose assertion still stands:
    // only those were told `DOMESTIC-CRIME` as a description of its own,
    // which is what `retract-ind` takes back.
    let mut retractable: Vec<String> = Vec::new();
    for block in 0..sizes.rules_crimes / CRIME_BLOCK {
        let group = block as u32;
        let write = |text: String| Op::new(Class::Write, group, text, Expect::Ok);
        // Half the crimes of a block are domestic, in an order of its own.
        let mut is_domestic: Vec<bool> = (0..CRIME_BLOCK).map(|k| k % 2 == 0).collect();
        shuffle(rng, &mut is_domestic);
        for (k, is_domestic) in is_domestic.into_iter().enumerate() {
            let i = block * CRIME_BLOCK + k;
            let crime = format!("{p}-crime-{i}");
            ops.push(Op::new(
                Class::Create,
                group,
                format!("(create-ind {crime})"),
                Expect::Ok,
            ));
            ops.push(write(format!("(assert-ind {crime} CRIME)")));
            ops.push(write(format!(
                "(assert-ind {crime} (FILLS victim {p}-victim-{i}))"
            )));
            if is_domestic {
                ops.push(write(format!(
                    "(assert-ind {crime} (FILLS perpetrator {p}-suspect-{i}))"
                )));
                ops.push(write(format!("(assert-ind {p}-suspect-{i} PERSON)")));
                ops.push(write(format!(
                    "(assert-ind {crime} (FILLS site {p}-home-{i}))"
                )));
                ops.push(write(format!("(assert-ind {crime} DOMESTIC-CRIME)")));
                domestic.push(crime.clone());
                retractable.push(crime.clone());
                sited.push(crime);
            } else {
                let n = rng.gen_range(1..=3);
                ops.push(write(format!(
                    "(assert-ind {crime} (AT-LEAST {n} perpetrator))"
                )));
            }
        }
        // The block ends by taking back four standing DOMESTIC-CRIME
        // assertions, its own or earlier ones, and by giving a crime a
        // second site, which AT-MOST 1 site must refuse.
        for _ in 0..BLOCK_RETRACTIONS {
            let crime = retractable.swap_remove(rng.gen_range(0..retractable.len()));
            domestic.retain(|d| *d != crime);
            ops.push(Op::new(
                Class::Retract,
                group,
                format!("(retract-ind {crime} DOMESTIC-CRIME)"),
                Expect::Ok,
            ));
        }
        let crime = &sited[rng.gen_range(0..sited.len())];
        ops.push(Op::new(
            Class::Write,
            group,
            format!("(assert-ind {crime} (FILLS site {p}-elsewhere-{block}))"),
            Expect::Refused,
        ));
    }

    let desc = format!(
        "(AND CRIME (FILLS victim {p}-pv-{{i}}) (FILLS perpetrator {p}-pp-{{i}}) \
         (FILLS site {p}-ph-{{i}}) (AT-MOST 1 perpetrator) (SAME-AS (site) (perpetrator domicile)))"
    );
    Stream {
        tenant: format!("rules-{p}"),
        setup,
        ops,
        // Nothing but being told so makes a crime domestic here: an open
        // case has no upper bound on its perpetrators.
        reopen_check: Op::new(
            Class::Read,
            0,
            "(retrieve DOMESTIC-CRIME)".into(),
            Expect::Reply(individuals_reply(&domestic)),
        ),
        probe: Probe {
            create: format!("(create-ind {p}-probe-{{i}})"),
            assert: format!("(assert-ind {p}-probe-{{i}} {desc})"),
            read: format!("(retrieve (AND CRIME (FILLS site {p}-ph-{{i}})))"),
            retract: format!("(retract-ind {p}-probe-{{i}} {desc})"),
        },
        sample_individual: format!("{p}-old-{}", sizes.rules_preload / 2),
        ingest_options: String::new(),
    }
}

/// Write-only, two writers on two tenants.
fn write_rules(seed: u64, sizes: &Sizes) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let streams = ["a", "b"]
        .iter()
        .map(|p| crime_stream(&mut rng, p, sizes))
        .collect();
    Plan {
        workload: Workload::WireWriteRules,
        streams,
        primary: Class::Write,
        pass: BLOCK_REQUESTS,
        window: BLOCK_REQUESTS,
    }
}

// ---- record data through POST /ingest (bulk-reopen) -----------------------

const KINDS: [&str; 5] = ["dog", "cat", "bird", "fish", "hamster"];
const TEAMS: [&str; 3] = ["red", "blue", "green"];

/// Options of `POST /ingest` for a pets CSV.
pub const INGEST_OPTIONS: &str = "entity=pet&id=id&infer=1";

/// A pets CSV for the ingest probe of workloads that ingest none.
pub fn reference_csv(seed: u64, rows: usize) -> String {
    pets_csv(&mut StdRng::seed_from_u64(seed), rows, "p").0
}

/// `id,kind,legs,score,team` rows; returns the CSV and the ids of the
/// rows the reopen check asks for.
fn pets_csv(rng: &mut StdRng, rows: usize, id_prefix: &str) -> (String, Vec<String>) {
    let mut csv = String::with_capacity(32 + rows * 32);
    csv.push_str("id,kind,legs,score,team\n");
    let mut red_dogs = Vec::new();
    for i in 0..rows {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let legs: u32 = rng.gen_range(0..9);
        let score = f64::from(rng.gen_range(0..10_000u32)) / 100.0;
        let team = TEAMS[rng.gen_range(0..TEAMS.len())];
        let _ = writeln!(csv, "{id_prefix}{i},{kind},{legs},{score:.2},{team}");
        if kind == "dog" && team == "red" {
            red_dogs.push(format!("{id_prefix}{i}"));
        }
    }
    (csv, red_dogs)
}

/// One CSV through the segment tier, then a restart.
fn bulk_reopen(seed: u64, sizes: &Sizes) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let (csv, red_dogs) = pets_csv(&mut rng, sizes.bulk_rows, "r");
    let (warm_csv, _) = pets_csv(&mut rng, sizes.bulk_warm_rows, "w");
    let ingest = |csv: String, rows: usize| Op::new(Class::Ingest, 0, csv, Expect::Accepted(rows));
    let desc =
        "(AND PET (FILLS kind \"dog\") (FILLS legs 4) (FILLS score 1.5) (FILLS team \"red\"))";
    let stream = Stream {
        tenant: "bulk".to_owned(),
        // The runner sends an ingest of the set-up to a tenant of its
        // own, so the timed CSV still meets a fresh one; it pays the
        // first-touch costs of the ingest path before timing starts.
        setup: vec![ingest(warm_csv, sizes.bulk_warm_rows)],
        ops: vec![ingest(csv, sizes.bulk_rows)],
        reopen_check: Op::new(
            Class::Read,
            0,
            "(retrieve (AND PET (FILLS kind \"dog\") (FILLS team \"red\")))".into(),
            Expect::Reply(individuals_reply(&red_dogs)),
        ),
        probe: Probe {
            create: "(create-ind probe-{i})".into(),
            assert: format!("(assert-ind probe-{{i}} {desc})"),
            read: "(retrieve (AND PET (FILLS legs 4) (FILLS team \"red\") (FILLS kind \"fish\")))"
                .into(),
            retract: format!("(retract-ind probe-{{i}} {desc})"),
        },
        sample_individual: format!("r{}", sizes.bulk_rows / 2),
        ingest_options: INGEST_OPTIONS.to_owned(),
    };
    Plan {
        workload: Workload::BulkReopen,
        streams: vec![stream],
        primary: Class::Ingest,
        pass: 1,
        window: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        for w in Workload::ALL {
            let (a, b) = (plan(w, 7, &Sizes::SMOKE), plan(w, 7, &Sizes::SMOKE));
            assert_eq!(a, b, "{} differs between two generations", w.name());
            assert_ne!(
                a,
                plan(w, 8, &Sizes::SMOKE),
                "{} ignores its seed",
                w.name()
            );
        }
        assert_eq!(reference_csv(3, 50), reference_csv(3, 50));
    }

    /// What a window asks for, names and numbers aside.
    fn shape(window: &[Op]) -> Vec<String> {
        let mut shape: Vec<String> = window
            .iter()
            .map(|op| {
                let words: String = op
                    .text
                    .chars()
                    .filter(|c| !c.is_ascii_digit())
                    .collect::<String>()
                    .split_whitespace()
                    .filter(|w| w.starts_with('(') || w.chars().all(|c| c.is_ascii_uppercase()))
                    .collect::<Vec<_>>()
                    .join(" ");
                let refused = op.expect == Expect::Refused;
                format!("{:?} {words} {refused}", op.class)
            })
            .collect();
        shape.sort();
        shape
    }

    #[test]
    fn streams_have_the_frozen_shape() {
        let s = Sizes::SMOKE;
        let mixed = plan(Workload::WireMixed, 1, &s);
        let classes: Vec<Class> = mixed.streams[0].ops.iter().map(|op| op.class).collect();
        assert_eq!(classes.len(), 3 * s.mixed_iterations);
        assert!(classes
            .chunks(3)
            .all(|c| c == [Class::Create, Class::Write, Class::Read]));

        let large = plan(Workload::WireReadLarge, 1, &s);
        assert_eq!(large.streams[0].ops.len(), s.large_reads);
        assert!(large.streams[0]
            .ops
            .iter()
            .all(|op| op.class == Class::Read));
        let distinct: std::collections::BTreeSet<&str> = large.streams[0]
            .ops
            .iter()
            .map(|op| op.text.as_str())
            .collect();
        assert_eq!(distinct.len(), 64);

        let rules = plan(Workload::WireWriteRules, 1, &s);
        assert_eq!(rules.streams.len(), 2);
        for stream in &rules.streams {
            assert!(stream.ops.iter().all(|op| op.class != Class::Read));
            assert_eq!(stream.ops.len(), s.rules_crimes / CRIME_BLOCK * rules.pass);
        }

        let bulk = plan(Workload::BulkReopen, 1, &s);
        let [ingest] = bulk.streams[0].ops.as_slice() else {
            panic!("bulk-reopen times one request");
        };
        assert_eq!(ingest.text.lines().count(), 1 + s.bulk_rows);
        assert_eq!(ingest.expect, Expect::Accepted(s.bulk_rows));
    }

    #[test]
    fn every_pass_holds_the_same_requests_whatever_the_seed() {
        for w in Workload::ALL {
            let first = plan(w, 1, &Sizes::SMOKE);
            let want = shape(&first.streams[0].ops[..first.pass]);
            for seed in [1, 2] {
                let plan = plan(w, seed, &Sizes::SMOKE);
                assert_eq!(plan.pass % plan.window, 0);
                for stream in &plan.streams {
                    assert_eq!(stream.ops.len() % plan.pass, 0);
                    for pass in stream.ops.chunks(plan.pass) {
                        assert_eq!(shape(pass), want, "{} seed {seed}", w.name());
                        // Window by window, a pass asks what the first did.
                        let windows = pass.chunks(plan.window);
                        for (window, first) in windows.zip(stream.ops.chunks(plan.window)) {
                            assert_eq!(shape(window), shape(first));
                        }
                    }
                }
            }
        }
        // The refusals and retractions of a block are what its comment says.
        let rules = plan(Workload::WireWriteRules, 1, &Sizes::SMOKE);
        let block = &rules.streams[0].ops[..rules.pass];
        let count = |f: &dyn Fn(&Op) -> bool| block.iter().filter(|op| f(op)).count();
        assert_eq!(count(&|op| op.expect == Expect::Refused), 1);
        assert_eq!(count(&|op| op.class == Class::Retract), BLOCK_RETRACTIONS);
    }

    #[test]
    fn probe_forms_number_their_individual() {
        let probe = &plan(Workload::WireMixed, 1, &Sizes::SMOKE).streams[0].probe;
        let [(_, create), (_, assert), (_, read), (_, retract)] = probe.forms(5);
        assert_eq!(create, "(create-ind probe-5)");
        assert!(
            assert.starts_with("(assert-ind probe-5 ")
                && retract.starts_with("(retract-ind probe-5 ")
        );
        assert!(read.starts_with("(retrieve "));
    }
}
