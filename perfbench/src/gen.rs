//! Seeded input generators. The workload seed is their only source of
//! randomness: the same seed yields byte-identical inputs, and the
//! program under test only ever sees the generated inputs.

use serde::Value;
use socy_defect::truncation::select_truncation;
use socy_defect::NegativeBinomial;
use socy_faulttree::{Netlist, NodeId};

/// SplitMix64: small, fast and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of the workload `seed`, so
    /// that changing one generator never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws the items of a fixed multiset in seeded order, reshuffling after
/// every full cycle: each item's share of the stream is exact over a
/// cycle, so streams of different seeds carry the same mix of work.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        Deck { next: items.len(), items }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// Most inputs an inline system may have: the exact baseline that checks
/// inline yields costs `O(2^C · C)` per defect count.
pub const MAX_INLINE_INPUTS: usize = 16;

/// A generated inline fault tree with its raw component probabilities.
#[derive(Debug, Clone)]
pub struct InlineSystem {
    pub name: String,
    /// The netlist in the textual format the service accepts.
    pub text: String,
    pub netlist: Netlist,
    pub raw: Vec<f64>,
}

/// One `n`-bit ripple-carry adder built from XOR/AND/OR full adders over
/// the inputs `a`, `b` and carry-in `cin`; returns the sum bits and the
/// carry-out.
fn ripple_adder(nl: &mut Netlist, a: &[NodeId], b: &[NodeId], cin: NodeId) -> Vec<NodeId> {
    let mut carry = cin;
    let mut out = Vec::with_capacity(a.len() + 1);
    for (&x, &y) in a.iter().zip(b) {
        let half = nl.xor([x, y]);
        out.push(nl.xor([half, carry]));
        let generate = nl.and([x, y]);
        let propagate = nl.and([half, carry]);
        carry = nl.or([generate, propagate]);
    }
    out.push(carry);
    out
}

/// A duplicate-and-compare adder: two independent `bits`-bit adders whose
/// outputs are compared bitwise; the system fails when any output bit
/// disagrees. The XOR comparators make the fault tree non-monotone. The
/// second copy has its own carry-in or shares the first's; `wiring`
/// decides which component plays which role.
fn compare_adders(wiring: &mut Rng, bits: usize, shared_carry: bool) -> Netlist {
    let mut nl = Netlist::new();
    let count = 4 * bits + if shared_carry { 1 } else { 2 };
    let mut inputs: Vec<NodeId> = (0..count).map(|i| nl.input(format!("x{i}"))).collect();
    wiring.shuffle(&mut inputs);
    let (a, rest) = inputs.split_at(bits);
    let (b, rest) = rest.split_at(bits);
    let (c, rest) = rest.split_at(bits);
    let (d, carries) = rest.split_at(bits);
    let (cin, cin2) = (carries[0], carries[carries.len() - 1]);
    let first = ripple_adder(&mut nl, a, b, cin);
    let second = ripple_adder(&mut nl, c, d, cin2);
    let mismatches: Vec<NodeId> =
        first.iter().zip(&second).map(|(&x, &y)| nl.xor([x, y])).collect();
    let out = nl.or(mismatches);
    nl.set_output(out);
    nl
}

/// A random monotone redundancy structure: inputs are grouped into small
/// AND (all spares failed), OR (any failed) and 2-out-of-3 clusters,
/// which are combined the same way until one output remains. `shape`
/// draws the structure, `wiring` which component sits at which leaf.
fn random_tree(shape: &mut Rng, wiring: &mut Rng, inputs: usize) -> Netlist {
    let mut nl = Netlist::new();
    let mut pool: Vec<NodeId> = (0..inputs).map(|i| nl.input(format!("x{i}"))).collect();
    wiring.shuffle(&mut pool);
    let rng = shape;
    while pool.len() > 1 {
        rng.shuffle(&mut pool);
        let mut next = Vec::new();
        let mut rest = pool.as_slice();
        while !rest.is_empty() {
            let take = (2 + rng.below(2)).min(rest.len());
            let (group, tail) = rest.split_at(take);
            rest = tail;
            next.push(match (group.len(), rng.below(3)) {
                (1, _) => group[0],
                (3, 2) => nl.at_least(2, group.iter().copied()),
                (_, 0) => nl.and(group.iter().copied()),
                _ => nl.or(group.iter().copied()),
            });
        }
        pool = next;
    }
    nl.set_output(pool[0]);
    nl
}

/// A structural what-if variant of `base` over the same inputs: one
/// extra failure mode (two named components failing together, or their
/// parity for non-monotone systems) is OR-ed onto the output.
pub fn structural_variant(rng: &mut Rng, base: &Netlist) -> Netlist {
    let mut nl = Netlist::new();
    let inputs: Vec<NodeId> = base.var_names().iter().map(|name| nl.input(name.clone())).collect();
    let original = nl.import(base, &inputs);
    let i = rng.below(inputs.len());
    let j = (i + 1 + rng.below(inputs.len() - 1)) % inputs.len();
    let has_xor = base.iter().any(|(_, g)| g.kind.mnemonic() == "xor");
    let extra =
        if has_xor { nl.xor([inputs[i], inputs[j]]) } else { nl.and([inputs[i], inputs[j]]) };
    let out = nl.or([original, extra]);
    nl.set_output(out);
    nl
}

/// Raw component probabilities summing to `0.95`, each within a factor of
/// three of the others.
fn raw_probabilities(rng: &mut Rng, n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|_| rng.range(0.5, 1.5)).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| 0.95 * w / total).collect()
}

/// Seed of the tree shapes: fixed, so that the pool of every workload
/// seed has the same structures and costs about the same to compile.
const SHAPES: u64 = 0x5EED_5A9E;

/// `count` seeded inline systems; every other one is a
/// duplicate-and-compare adder, the rest random redundancy trees. Sizes
/// and shapes follow a fixed cycle (2- and 3-bit adders, trees of 10 to
/// 16 inputs); the workload seed draws which component sits where and the
/// probabilities.
pub fn inline_pool(seed: u64, count: usize) -> Vec<InlineSystem> {
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|i| {
            let name = format!("inline{i}");
            let netlist = if i % 2 == 0 {
                compare_adders(&mut rng, 2 + (i / 2) % 2, (i / 4) % 2 == 0)
            } else {
                let mut shape = Rng::new(SHAPES, i as u64);
                random_tree(&mut shape, &mut rng, 10 + (i / 2) % (MAX_INLINE_INPUTS - 10 + 1))
            };
            let text = netlist.to_text().expect("generated netlists have an output");
            let raw = raw_probabilities(&mut rng, netlist.num_inputs());
            InlineSystem { name, text, netlist, raw }
        })
        .collect()
}

/// Inputs of one reeval_sweep pass against one resident pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReevalInputs {
    /// `(λ', α)` of thinned negative-binomial distributions, each
    /// evaluated at the base `ε` with its own `Pipeline::evaluate` call.
    pub grid: Vec<(f64, f64)>,
    /// One `sweep_epsilons` call on the base distribution.
    pub epsilons: Vec<f64>,
    /// Swap-only what-if families: per variant, the `(component,
    /// probability)` overrides.
    pub families: Vec<Vec<Vec<(usize, f64)>>>,
}

/// Draws `count` items by rejection: `candidate` proposes an item and
/// whether it qualifies.
fn draw_until<T>(count: usize, mut candidate: impl FnMut() -> (T, bool)) -> Vec<T> {
    let mut items = Vec::with_capacity(count);
    for _ in 0..1_000_000 {
        if items.len() == count {
            return items;
        }
        if let (item, true) = candidate() {
            items.push(item);
        }
    }
    panic!("too few candidates qualify");
}

/// The reeval_sweep inputs for a system with raw probabilities `raw`
/// whose resident diagram is compiled at `max_m` for `epsilon` on the
/// negative-binomial base distribution `(base_lambda, base_alpha)`.
/// Every point needs exactly `max_m` lethal defects: the resident diagram
/// answers it without recompiling, and since the ROMDD walk skips the
/// zero-padded defect counts above a point's own `M`, equal `M`s give
/// every seed's pass the same cost.
pub fn reeval_inputs(
    seed: u64,
    stream: u64,
    raw: &[f64],
    (base_lambda, base_alpha): (f64, f64),
    epsilon: f64,
    max_m: usize,
) -> ReevalInputs {
    let needs_max_m = |lambda: f64, alpha: f64, epsilon: f64| {
        let nb = NegativeBinomial::new(lambda, alpha).expect("positive parameters");
        select_truncation(&nb, epsilon).is_ok_and(|t| t.truncation() == max_m)
    };
    let mut rng = Rng::new(seed, 2);
    let grid = draw_until(16, || {
        let point = (rng.range(0.3, 1.0), rng.range(2.0, 8.0));
        (point, needs_max_m(point.0, point.1, epsilon))
    });
    let mut epsilons = draw_until(4, || {
        let e = 10f64.powf(rng.range(epsilon.log10(), epsilon.log10() + 1.0));
        (e, needs_max_m(base_lambda, base_alpha, e))
    });
    epsilons.sort_by(|a, b| b.total_cmp(a));
    // One family; every third variant makes its component immune.
    let mut rng = Rng::new(seed, 3 + stream);
    let family = (0..6)
        .map(|v| {
            let component = rng.below(raw.len());
            let probability = if v % 3 == 0 { 0.0 } else { raw[component] * rng.range(0.1, 0.9) };
            vec![(component, probability)]
        })
        .collect();
    ReevalInputs { grid, epsilons, families: vec![family] }
}

/// The registry systems serve_mix addresses by name.
pub const REGISTRY: [&str; 4] = ["MS2", "ESEN4x1", "MS4", "ESEN4x2"];
pub const SPECS: [&str; 2] = ["w/ml", "wv/ml"];

/// Which system a request names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sys {
    Registry(usize),
    Inline(usize),
}

/// Per-request resource limits of a governed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Governed {
    /// `timeout_ms: 0`: Monte-Carlo bounds without touching the cache.
    Timeout0,
    /// `node_budget: 1`: a cache hit when resident, bounds otherwise.
    NodeBudget1,
}

/// One what-if variant of an `analyze_delta` request.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSpec {
    pub name: String,
    pub overrides: Vec<(usize, f64)>,
    /// Structural swap: the variant netlist in text form.
    pub netlist: Option<String>,
}

/// What a request line asks for, kept to check its response.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Eval {
        kind: &'static str,
        sys: Sys,
        spec: &'static str,
        lambda: f64,
        alpha: f64,
        epsilons: Vec<f64>,
        deltas: Vec<DeltaSpec>,
        governed: Option<Governed>,
    },
    Stats,
    /// A line that must be answered by a typed error containing the
    /// fragment.
    Invalid(&'static str),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: Option<String>,
    pub line: String,
    pub expect: Expect,
}

/// The serve_mix request stream: batches of 1–3 lines, each batch
/// followed by a blank line on the wire.
#[derive(Debug, Clone)]
pub struct ServeStream {
    pub inline: Vec<InlineSystem>,
    pub batches: Vec<Vec<Request>>,
}

impl ServeStream {
    pub fn requests(&self) -> impl Iterator<Item = &Request> {
        self.batches.iter().flatten()
    }

    /// The whole stream as it goes over the wire.
    #[cfg(test)]
    pub fn wire_text(&self) -> String {
        let mut text = String::new();
        for batch in &self.batches {
            for request in batch {
                text.push_str(&request.line);
                text.push('\n');
            }
            text.push('\n');
        }
        text
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

fn system_value(sys: Sys, inline: &[InlineSystem]) -> Value {
    match sys {
        Sys::Registry(i) => obj(vec![("benchmark", string(REGISTRY[i]))]),
        Sys::Inline(i) => {
            let system = &inline[i];
            obj(vec![
                ("name", string(&system.name)),
                ("netlist", string(&system.text)),
                ("components", Value::Array(system.raw.iter().map(|&p| Value::Float(p)).collect())),
            ])
        }
    }
}

/// Raw probability of `component` of the named system.
fn raw_of(sys: Sys, inline: &[InlineSystem], registry_raw: &[Vec<f64>]) -> Vec<f64> {
    match sys {
        Sys::Registry(i) => registry_raw[i].clone(),
        Sys::Inline(i) => inline[i].raw.clone(),
    }
}

/// Raw component probabilities of the [`REGISTRY`] systems, as the
/// service resolves them (lethality 1).
pub fn registry_raw() -> Vec<Vec<f64>> {
    let all = socy_benchmarks::paper_benchmarks();
    REGISTRY
        .iter()
        .map(|name| {
            let system = all.iter().find(|b| b.name == *name).expect("registry system exists");
            let components =
                system.component_probabilities(1.0).expect("registry weights are valid");
            (0..components.len()).map(|i| components.raw(i)).collect()
        })
        .collect()
}

/// What one request of the stream does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Analyze,
    Sweep,
    Delta,
    Governed,
    Invalid,
    Stats,
}

/// The decks a stream draws from.
struct Mix {
    kinds: Deck<Kind>,
    systems: Deck<Sys>,
    specs: Deck<&'static str>,
    lambdas: Deck<f64>,
    epsilons: Deck<f64>,
    governed: Deck<Governed>,
    invalid: Deck<usize>,
}

impl Mix {
    /// Analyze 60 %, sweep 10 %, analyze_delta 15 %, governed 5 %,
    /// invalid 5 %, stats 5 %; registry keys and inline systems equally
    /// often (the inline systems are what push the residents past the
    /// cache's node budget).
    fn new(inline: usize) -> Self {
        let mut kinds = vec![Kind::Analyze; 12];
        kinds.extend([Kind::Sweep; 2]);
        kinds.extend([Kind::Delta; 3]);
        kinds.extend([Kind::Governed, Kind::Invalid, Kind::Stats]);
        let per_registry = inline.div_ceil(REGISTRY.len());
        let mut systems: Vec<Sys> = (0..REGISTRY.len())
            .flat_map(|r| std::iter::repeat_n(Sys::Registry(r), per_registry))
            .collect();
        systems.extend((0..inline).map(Sys::Inline));
        Mix {
            kinds: Deck::new(kinds),
            systems: Deck::new(systems),
            specs: Deck::new(SPECS.to_vec()),
            lambdas: Deck::new(vec![0.5, 1.0]),
            epsilons: Deck::new(vec![1e-2, 1e-3]),
            governed: Deck::new(vec![Governed::Timeout0, Governed::NodeBudget1]),
            invalid: Deck::new(vec![0, 1, 2]),
        }
    }
}

/// Generates the serve_mix stream of `count` requests (the last batch may
/// be shorter).
pub fn serve_stream(seed: u64, count: usize, inline_count: usize) -> ServeStream {
    let inline = inline_pool(seed, inline_count);
    let registry_raw = registry_raw();
    let mut rng = Rng::new(seed, 4);
    let mut variant_rng = Rng::new(seed, 5);
    let mut mix = Mix::new(inline.len());
    let mut batches = Vec::new();
    let mut made = 0usize;
    while made < count {
        let size = (1 + rng.below(3)).min(count - made);
        let mut batch = Vec::with_capacity(size);
        for _ in 0..size {
            let id = format!("r{made}");
            made += 1;
            batch.push(request(&mut rng, &mut variant_rng, &mut mix, id, &inline, &registry_raw));
        }
        batches.push(batch);
    }
    ServeStream { inline, batches }
}

fn request(
    rng: &mut Rng,
    variant_rng: &mut Rng,
    mix: &mut Mix,
    id: String,
    inline: &[InlineSystem],
    registry_raw: &[Vec<f64>],
) -> Request {
    let kind = mix.kinds.draw(rng);
    if kind == Kind::Stats {
        let line = obj(vec![("type", string("stats")), ("id", string(&id))]);
        return Request { id: Some(id), line: to_line(&line), expect: Expect::Stats };
    }
    let sys = mix.systems.draw(rng);
    let spec = mix.specs.draw(rng);
    // MS4 and ESEN4x2 stay at λ'=0.5: at λ'=1 each of their diagrams
    // takes up to 0.5 s to compile and 40 % of the cache budget, and the
    // registry keys alone would thrash the cache.
    let lambda = match sys {
        Sys::Registry(2 | 3) => 0.5,
        _ => mix.lambdas.draw(rng),
    };
    let epsilon = mix.epsilons.draw(rng);
    let alpha = 4.0;
    let distribution = obj(vec![
        ("kind", string("negative_binomial")),
        ("lambda", Value::Float(lambda)),
        ("alpha", Value::Float(alpha)),
    ]);
    if kind == Kind::Invalid {
        let (fragment, line) = match mix.invalid.draw(rng) {
            0 => ("invalid request", format!(r#"{{"type":"analyze","id":"{id}","system":"#)),
            1 => (
                "unknown benchmark",
                to_line(&obj(vec![
                    ("type", string("analyze")),
                    ("id", string(&id)),
                    ("system", obj(vec![("benchmark", string("MS99"))])),
                    ("distribution", distribution),
                    ("epsilon", Value::Float(epsilon)),
                ])),
            ),
            _ => (
                "epsilon",
                to_line(&obj(vec![
                    ("type", string("analyze")),
                    ("id", string(&id)),
                    ("system", system_value(sys, inline)),
                    ("distribution", distribution),
                    ("ordering", string(spec)),
                    ("epsilon", Value::Int(0)),
                ])),
            ),
        };
        // A line that does not parse cannot echo its id.
        let id = (fragment != "invalid request").then_some(id);
        return Request { id, line, expect: Expect::Invalid(fragment) };
    }
    let mut fields = vec![
        ("id", string(&id)),
        ("system", system_value(sys, inline)),
        ("distribution", distribution),
        ("ordering", string(spec)),
    ];
    let mut epsilons = vec![epsilon];
    let mut deltas = Vec::new();
    let mut governed = None;
    let kind = match kind {
        Kind::Sweep => "sweep",
        Kind::Delta => "analyze_delta",
        Kind::Governed => {
            governed = Some(mix.governed.draw(rng));
            "analyze"
        }
        _ => "analyze",
    };
    fields.insert(0, ("type", string(kind)));
    match kind {
        "sweep" => {
            epsilons = vec![1e-2, 1e-3];
            fields.push((
                "epsilons",
                Value::Array(epsilons.iter().map(|&e| Value::Float(e)).collect()),
            ));
        }
        _ => fields.push(("epsilon", Value::Float(epsilon))),
    }
    match governed {
        Some(Governed::Timeout0) => fields.push(("timeout_ms", Value::UInt(0))),
        Some(Governed::NodeBudget1) => fields.push(("node_budget", Value::UInt(1))),
        None => {}
    }
    if kind == "analyze_delta" {
        let raw = raw_of(sys, inline, registry_raw);
        deltas.push(DeltaSpec { name: "base".to_string(), overrides: Vec::new(), netlist: None });
        for v in 0..1 + rng.below(3) {
            let component = rng.below(raw.len());
            let probability =
                if rng.chance(0.25) { 0.0 } else { raw[component] * rng.range(0.1, 0.9) };
            deltas.push(DeltaSpec {
                name: format!("v{v}"),
                overrides: vec![(component, probability)],
                netlist: None,
            });
        }
        if let Sys::Inline(i) = sys {
            if rng.chance(0.4) {
                let variant = structural_variant(variant_rng, &inline[i].netlist);
                deltas.push(DeltaSpec {
                    name: "swap".to_string(),
                    overrides: Vec::new(),
                    netlist: Some(variant.to_text().expect("variant has an output")),
                });
            }
        }
        let entries = deltas
            .iter()
            .map(|d| {
                let mut entry = vec![("name", string(&d.name))];
                if !d.overrides.is_empty() {
                    let overrides = d
                        .overrides
                        .iter()
                        .map(|&(c, p)| {
                            obj(vec![
                                ("component", Value::UInt(c as u64)),
                                ("probability", Value::Float(p)),
                            ])
                        })
                        .collect();
                    entry.push(("overrides", Value::Array(overrides)));
                }
                if let Some(text) = &d.netlist {
                    entry.push(("netlist", string(text)));
                }
                obj(entry)
            })
            .collect();
        fields.push(("deltas", Value::Array(entries)));
    }
    Request {
        id: Some(id),
        line: to_line(&obj(fields)),
        expect: Expect::Eval { kind, sys, spec, lambda, alpha, epsilons, deltas, governed },
    }
}

fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("request documents serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        let a = serve_stream(7, 300, 12);
        let b = serve_stream(7, 300, 12);
        assert_eq!(a.wire_text(), b.wire_text());
        assert_eq!(
            reeval_inputs(7, 0, &[0.5, 0.5], (1.0, 4.0), 1e-3, 6),
            reeval_inputs(7, 0, &[0.5, 0.5], (1.0, 4.0), 1e-3, 6)
        );
    }

    #[test]
    fn a_different_seed_gives_a_different_stream() {
        assert_ne!(serve_stream(7, 300, 12).wire_text(), serve_stream(8, 300, 12).wire_text());
        assert_ne!(
            reeval_inputs(7, 0, &[0.5, 0.5], (1.0, 4.0), 1e-3, 6),
            reeval_inputs(8, 0, &[0.5, 0.5], (1.0, 4.0), 1e-3, 6)
        );
    }

    #[test]
    fn reeval_points_all_need_the_compiled_truncation() {
        let m = |lambda, alpha, epsilon| {
            let nb = NegativeBinomial::new(lambda, alpha).unwrap();
            select_truncation(&nb, epsilon).unwrap().truncation()
        };
        for seed in 0..10 {
            let inputs = reeval_inputs(seed, 0, &[0.5, 0.5], (1.0, 4.0), 1e-3, 6);
            assert!(inputs.grid.iter().all(|&(l, a)| m(l, a, 1e-3) == 6));
            assert!(inputs.epsilons.iter().all(|&e| m(1.0, 4.0, e) == 6));
        }
    }

    #[test]
    fn inline_netlists_parse_and_stay_small() {
        for seed in 0..20 {
            let stream = serve_stream(seed, 200, 12);
            let mut texts: Vec<&str> = stream.inline.iter().map(|s| s.text.as_str()).collect();
            for request in stream.requests() {
                if let Expect::Eval { deltas, .. } = &request.expect {
                    texts.extend(deltas.iter().filter_map(|d| d.netlist.as_deref()));
                }
            }
            for text in texts {
                let netlist = Netlist::from_text(text).expect("generated netlist parses");
                assert!(netlist.num_inputs() <= MAX_INLINE_INPUTS, "{text}");
            }
        }
    }

    #[test]
    fn the_mix_contains_every_request_kind() {
        let stream = serve_stream(3, 1000, 12);
        let mut kinds = std::collections::BTreeMap::new();
        for request in stream.requests() {
            let kind = match &request.expect {
                Expect::Eval { governed: Some(_), .. } => "governed",
                Expect::Eval { kind, .. } => kind,
                Expect::Stats => "stats",
                Expect::Invalid(_) => "invalid",
            };
            *kinds.entry(kind).or_insert(0usize) += 1;
        }
        for kind in ["analyze", "sweep", "analyze_delta", "governed", "invalid", "stats"] {
            assert!(kinds.get(kind).copied().unwrap_or(0) > 20, "{kind}: {kinds:?}");
        }
        let xor_trees = stream.inline.iter().filter(|s| s.text.contains("xor")).count();
        assert!(xor_trees > 0 && xor_trees < stream.inline.len());
    }
}
