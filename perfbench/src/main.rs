//! `perfbench` — the layered benchmark of the `bnb-cluster` simulator.
//!
//! `run.py` beside this package builds it and maps its last output line
//! onto the metrics `BENCHMARK.json` declares; see `README.md`. By
//! hand, from the repository root:
//!
//! ```sh
//! cargo build --release --manifest-path perfbench/Cargo.toml
//! perfbench/target/release/perfbench run --workload two-class --seed 7 --seconds 10
//! ```
//!
//! Modes (the first argument):
//!
//! * `run` — end-to-end: builds and runs the workload through the public
//!   `SimBuilder::scenario(..).seed(..).build()` / `Sim::run()` surface
//!   until `--seconds` have passed, and reports the requests per host
//!   second of the fastest repeat, the median `build()` time and the peak
//!   resident set.
//! * `trace` — per-layer: times the public entry point of every layer in
//!   the workload's shape under benchmark-owned spans, harvests the
//!   simulator's always-on counters through `Sim::telemetry_snapshot()`,
//!   and reconciles the layer costs against the end-to-end cost.
//!
//! Both modes check every simulator run they make (conservation,
//! repeat-identity and, in the trace, the sharded engine against the
//! serial one), print human-readable lines, and end with one JSON object:
//! `{"attempted": n, "failed": k, "metrics": {name: value, ...}}`.

use std::hint::black_box;
use std::time::Instant;

use bnb_cluster::{
    find_scenario, ArrivalSampler, ClusterMetrics, ClusterSpec, Fleet, PlacementEngine,
    PlacementSpec, Scenario, SimBuilder,
};
use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_hashring::MembershipRing;
use bnb_queueing::{CalendarQueue, EventScheduler, LazyBoard};
use bnb_telemetry::{MetricsSnapshot, Registry, Span};

/// A named workload: a registry scenario at a fixed request budget, run
/// to completion on the serial engine in one thread. The seed is the
/// only input the benchmark varies.
struct Workload {
    name: &'static str,
    scenario: &'static str,
    requests: u64,
    /// Whether the sharded engine must reproduce the serial drop rate,
    /// latency and peak queue on this spec. It does at giant scale, where
    /// an epoch spreads few arrivals over each server; on small fleets the
    /// fixed 8192-arrival epoch herds them, and the engines disagree.
    sharded_fidelity: bool,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "two-class",
        scenario: "two-class",
        requests: 4_000_000,
        sharded_fidelity: false,
    },
    Workload {
        name: "giant-serial",
        scenario: "giant",
        requests: 1_000_000,
        sharded_fidelity: true,
    },
    Workload {
        name: "churny-p2p",
        scenario: "churny-p2p",
        requests: 2_000_000,
        sharded_fidelity: false,
    },
];

/// `build()` calls timed before each repeat, on top of the one it runs,
/// so `setup_s` is a median of many samples spread over the whole run
/// even on the workloads that fit only a few repeats into it.
const EXTRA_BUILDS: usize = 3;
/// Fewest timed repeats of a run, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;

/// Sharded-vs-serial tolerances on the same spec and seed: the
/// engines are different simulators (placement reads a per-epoch frozen
/// view), so they agree statistically, not bitwise.
const FIDELITY_DROP_ABS: f64 = 0.005;
const FIDELITY_LATENCY_REL: f64 = 0.10;
const FIDELITY_QUEUE_ABS: f64 = 1.0;

/// Scheduler populations swept by the `sched.*.ns_per_pair.n*` cells.
const SWEEP: [usize; 4] = [64, 1024, 16384, 131072];
/// Virtual nodes per peer on the timed rings (`churny-p2p`'s setting).
const RING_VNODES: usize = 8;
/// Seconds each per-layer rate cell measures for, after calibration.
const CELL_SECONDS: f64 = 0.3;
/// Shortest timed batch of a rate cell, so clock reads stay negligible.
const BATCH_SECONDS: f64 = 0.005;
/// Fewest timed batches per rate cell.
const MIN_BATCHES: usize = 5;

impl Workload {
    fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn registry_scenario(&self) -> &'static Scenario {
        find_scenario(self.scenario).expect("workload names a registry scenario")
    }

    fn spec(&self, seed: u64) -> ClusterSpec {
        (self.registry_scenario().build)(seed, self.requests)
    }

    fn builder(&self, seed: u64) -> SimBuilder {
        SimBuilder::scenario(self.registry_scenario(), self.requests).seed(seed)
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the base is empty (a counter family the
/// workload's engine does not drive).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Every offered request is completed, dropped or orphaned.
fn conserved(m: &ClusterMetrics) -> bool {
    m.completed + m.dropped + m.orphaned == m.requests
}

/// FNV-1a over every field of the metrics, so byte-identity between two
/// builds shows as one equal line.
fn digest(m: &ClusterMetrics) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for x in [
        m.requests,
        m.completed,
        m.dropped,
        m.orphaned,
        m.joins,
        m.leaves,
    ] {
        eat(x);
    }
    eat(m.horizon.to_bits());
    for x in m.latency {
        eat(x.to_bits());
    }
    eat(m.latency_mean.to_bits());
    eat(m.max_queue_len);
    eat(m.max_normalized_queue.to_bits());
    for v in [
        &m.per_server_completed,
        &m.per_server_max_queue,
        &m.per_server_speed,
    ] {
        v.iter().for_each(|&x| eat(x));
    }
    format!("{h:016x}")
}

fn print_metrics(label: &str, m: &ClusterMetrics) {
    println!(
        "{label}: digest {} completed {} dropped {} orphaned {} drop_rate {:.6} p50 {:.6} p99 {:.6} max_norm_queue {:.6}",
        digest(m),
        m.completed,
        m.dropped,
        m.orphaned,
        m.drop_rate(),
        m.latency[0],
        m.latency[2],
        m.max_normalized_queue
    );
}

/// Checks the sharded engine's drop rate, p50/p99 latency and max
/// normalised queue against the serial engine's on the same spec and
/// seed. Returns whether they agree.
fn fidelity(sharded: &ClusterMetrics, serial: &ClusterMetrics) -> bool {
    let rel = |a: f64, b: f64| (a - b).abs() <= FIDELITY_LATENCY_REL * b.abs();
    let ok = (sharded.drop_rate() - serial.drop_rate()).abs() <= FIDELITY_DROP_ABS
        && rel(sharded.latency[0], serial.latency[0])
        && rel(sharded.latency[2], serial.latency[2])
        && (sharded.max_normalized_queue - serial.max_normalized_queue).abs() <= FIDELITY_QUEUE_ABS;
    println!(
        "fidelity sharded vs serial: {} (drop_rate |d| <= {FIDELITY_DROP_ABS}, p50/p99 within {:.0}%, max_norm_queue |d| <= {FIDELITY_QUEUE_ABS})",
        if ok { "pass" } else { "FAIL" },
        FIDELITY_LATENCY_REL * 100.0
    );
    ok
}

/// Counts the runs a mode attempted and the ones that failed a check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Checks one run against conservation and against the first run of
    /// the same seed (`first`): repeats must be bitwise identical.
    fn record(&mut self, first: &ClusterMetrics, m: &ClusterMetrics) {
        self.attempted += 1;
        if !conserved(m) || m != first {
            self.failed += 1;
        }
    }
}

/// End-to-end mode.
fn run_mode(w: &Workload, seed: u64, seconds: f64) -> (Checks, Vec<(&'static str, f64)>) {
    // An untimed first run warms the allocator and caches, and fixes the
    // metrics every timed repeat must reproduce.
    let first = w.builder(seed).build().run();
    // The peak of building and running the workload once. Later repeats
    // can raise it further or not, depending on how the allocator
    // happens to reuse the previous run's buffers.
    let rss = peak_rss_mb();
    print_metrics(w.name, &first);
    let mut checks = Checks::default();
    checks.record(&first, &first);
    let (mut rates, mut setup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < MIN_REPEATS || secs(start) < seconds {
        for _ in 0..EXTRA_BUILDS {
            let t = Instant::now();
            let sim = w.builder(seed).build();
            setup.push(secs(t));
            drop(sim);
        }
        let t = Instant::now();
        let mut sim = w.builder(seed).build();
        setup.push(secs(t));
        let t = Instant::now();
        let m = sim.run();
        rates.push(w.requests as f64 / secs(t));
        checks.record(&first, &m);
    }
    let (repeats, builds) = (rates.len(), setup.len());
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    // The fastest repeat. On a shared host, a repeat's speed swings by up
    // to ~1.6x with the neighbours' load, in phases of seconds; the median
    // then measures the mix of phases a run happened to see, while the
    // fastest repeat reads the least contended speed.
    let req_per_s = rates.iter().copied().fold(0.0, f64::max);
    let median_rps = median(rates);
    let setup_s = median(setup);
    println!(
        "{}: {} requests per run, serial engine, 1 thread; fixed batch, simulated Poisson arrivals, no host-time pacing",
        w.name, w.requests
    );
    println!("  req_per_s    {req_per_s:.6e} req/s  (fastest of {repeats} timed runs)");
    println!("  median       {median_rps:.6e} req/s  (slowest {slowest:.4e})");
    println!("  ns_per_req   {:.2} ns", 1e9 / req_per_s);
    println!("  setup_s      {setup_s:.6e} s  (median of {builds} build() calls)");
    println!("  peak_rss_mb  {rss:.3} MiB");
    (
        checks,
        vec![
            ("req_per_s", req_per_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ],
    )
}

/// Benchmark-owned spans around calls into the layers: one span per
/// cell, one occurrence per timed batch, kept in memory and summarised
/// when the trace ends.
struct Tracer {
    registry: Registry,
    /// Each span with the operations one of its occurrences covers.
    spans: Vec<(Span, u64)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            // Time every occurrence and keep each one's duration.
            registry: Registry::with_sampling(0, 1 << 16),
            spans: Vec::new(),
        }
    }

    fn span(&self, name: &'static str) -> Span {
        self.registry.span(name, self.spans.len() as u32 + 1)
    }

    fn median_ns(span: &Span) -> f64 {
        median(span.trace().iter().map(|e| e.dur_ns as f64).collect())
    }

    /// Times `chunk` — a fixed amount of work returning its op count —
    /// in batches calibrated to last at least `BATCH_SECONDS`, until
    /// `CELL_SECONDS` and `MIN_BATCHES` are both reached. Calibration
    /// doubles as warm-up. Returns the median ns per op.
    fn rate(&mut self, name: &'static str, mut chunk: impl FnMut() -> u64) -> f64 {
        let mut calls = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..calls {
                chunk();
            }
            if secs(t) >= BATCH_SECONDS {
                break;
            }
            calls *= 2;
        }
        let mut span = self.span(name);
        let mut ops = 0;
        let start = Instant::now();
        while span.entered() < MIN_BATCHES as u64 || secs(start) < CELL_SECONDS {
            let token = span.enter();
            ops = (0..calls).map(|_| chunk()).sum::<u64>();
            span.exit(token);
        }
        let ns = Self::median_ns(&span) / ops as f64;
        self.spans.push((span, ops));
        ns
    }

    /// Times `f` on `reps` inputs, each made untimed by `prep`; the
    /// result is dropped outside the span. Returns the median seconds.
    fn each<T, R>(
        &mut self,
        name: &'static str,
        reps: usize,
        mut prep: impl FnMut() -> T,
        mut f: impl FnMut(T) -> R,
    ) -> f64 {
        let mut span = self.span(name);
        for _ in 0..reps {
            let input = prep();
            let token = span.enter();
            let out = f(input);
            span.exit(token);
            drop(black_box(out));
        }
        let s = Self::median_ns(&span) / 1e9;
        self.spans.push((span, 1));
        s
    }

    fn summary(&self) {
        println!("spans (benchmark-owned, one occurrence per batch):");
        for (span, ops) in &self.spans {
            println!(
                "  {:<34} {:>5} batches x {:>9} ops  median {:>12.1} ns/op  total {:>9.3} ms",
                span.name(),
                span.entered(),
                ops,
                Self::median_ns(span) / *ops as f64,
                span.total_ns() as f64 / 1e6
            );
        }
    }
}

/// The scheduler the serial drive loop uses for departures: the
/// slot-keyed lazy board for d = 2 without churn (the fused loop), the
/// calendar queue otherwise.
#[derive(Clone, Copy)]
enum Sched {
    Lazy,
    Calendar,
}

fn scheduler_of(spec: &ClusterSpec) -> Sched {
    if spec.churn.is_none() && matches!(spec.placement, PlacementSpec::DChoice { d: 2 }) {
        Sched::Lazy
    } else {
        Sched::Calendar
    }
}

/// Pairs per timed chunk of the hold cells.
const HOLD_CHUNK: u64 = 4096;

/// A hold-pattern chunk over one slot per entry of `speeds`: pop the
/// earliest departure and reschedule its slot at `t + Exp(1) / speed`,
/// as a busy server of that speed does, so every slot stays pending.
/// Filled and cycled once before the first chunk, so timing starts in
/// steady state.
fn hold(sched: Sched, speeds: &[u64], seed: u64) -> Box<dyn FnMut() -> u64> {
    let inv: Vec<f64> = speeds.iter().map(|&s| 1.0 / s as f64).collect();
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(seed));
    let mut chunk: Box<dyn FnMut() -> u64> = match sched {
        Sched::Lazy => {
            let mut q = LazyBoard::with_slots(inv.len());
            for (slot, w) in inv.iter().enumerate() {
                q.schedule(slot as u32, exp.next() * w);
            }
            Box::new(move || {
                for _ in 0..HOLD_CHUNK {
                    let (t, slot) = q.pop().expect("hold keeps every slot pending");
                    q.schedule(slot, t + exp.next() * inv[slot as usize]);
                }
                HOLD_CHUNK
            })
        }
        Sched::Calendar => {
            let mut q: CalendarQueue<u32> = CalendarQueue::new();
            for (slot, w) in inv.iter().enumerate() {
                q.schedule(exp.next() * w, slot as u32);
            }
            Box::new(move || {
                for _ in 0..HOLD_CHUNK {
                    let (t, slot) = q.pop().expect("hold keeps every slot pending");
                    q.schedule(t + exp.next() * inv[slot as usize], slot);
                }
                HOLD_CHUNK
            })
        }
    };
    for _ in 0..speeds.len().div_ceil(HOLD_CHUNK as usize) {
        chunk();
    }
    chunk
}

/// A fleet of the spec's shape with 0–2 jobs on every server, so
/// placement compares non-trivial loads.
fn loaded_fleet(spec: &ClusterSpec, seed: u64) -> Fleet {
    let mut fleet = Fleet::new(spec.speeds.as_slice(), spec.queue_capacity);
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(mix64(seed ^ 0x10ad));
    for i in 0..fleet.n_slots() {
        for _ in 0..rng.next_below(3) {
            fleet.try_join(i, 0.0);
        }
    }
    fleet
}

/// One run of the workload's spec on the sharded engine at `workers`:
/// requests per host second in `run()`, metrics, telemetry snapshot.
fn sharded_at(w: &Workload, seed: u64, workers: usize) -> (f64, ClusterMetrics, MetricsSnapshot) {
    let mut sim = w.builder(seed).workers(workers).build();
    let t = Instant::now();
    let m = sim.run();
    (w.requests as f64 / secs(t), m, sim.telemetry_snapshot())
}

/// Per-layer mode.
fn trace_mode(w: &Workload, seed: u64, seconds: f64) -> (Checks, Vec<(&'static str, f64)>) {
    let spec = w.spec(seed);
    let n = spec.speeds.n();
    let requests = w.requests as f64;
    let mut tr = Tracer::new();
    let mut checks = Checks::default();

    // End to end, untraced and with the simulator's own spans on,
    // interleaved so both sides see the same host conditions.
    let first = w.builder(seed).build().run();
    print_metrics(w.name, &first);
    checks.record(&first, &first);
    let mut plain = tr.span("e2e.run.untraced");
    let mut traced = tr.span("e2e.run.traced");
    let mut snapshot = MetricsSnapshot::new();
    let start = Instant::now();
    while plain.entered() < 2 || secs(start) < seconds / 2.0 {
        let mut sim = w.builder(seed).build();
        let token = plain.enter();
        let m = sim.run();
        plain.exit(token);
        checks.record(&first, &m);
        let mut sim = w.builder(seed).telemetry(&Registry::enabled()).build();
        let token = traced.enter();
        let m = sim.run();
        traced.exit(token);
        checks.record(&first, &m);
        snapshot = sim.telemetry_snapshot();
    }
    let e2e_s = Tracer::median_ns(&plain) / 1e9;
    let traced_s = Tracer::median_ns(&traced) / 1e9;
    tr.spans.push((plain, w.requests));
    tr.spans.push((traced, w.requests));
    let e2e_ns = e2e_s * 1e9 / requests;

    // The sharded engine on the same spec, at one worker and at one per
    // core. Its output must not depend on the worker count.
    let wn = nproc().max(2);
    let (w1_rps, w1, _) = sharded_at(w, seed, 1);
    let (wn_rps, sharded, sharded_snap) = sharded_at(w, seed, wn);
    let serial_rps = requests / e2e_s;
    print_metrics(&format!("{} sharded w{wn}", w.name), &sharded);
    checks.attempted += 2;
    checks.failed += u64::from(!conserved(&w1)) + u64::from(!conserved(&sharded) || sharded != w1);
    if w.sharded_fidelity && !fidelity(&sharded, &first) {
        checks.failed = checks.attempted;
    }

    // The program's always-on counters.
    let c = |name: &str| snapshot.counter(name).unwrap_or(0);
    let arrived = c("sim.arrived");
    let bypass = c("sim.next_free_bypass");
    let epochs = sharded_snap.counter("sharded.epochs").unwrap_or(0);
    let sharded_arrived = sharded_snap.counter("sim.arrived").unwrap_or(0);
    println!("counters (Sim::telemetry_snapshot of a traced run):");
    for (name, value) in snapshot.counters() {
        println!("  {name:<34} {value}");
    }

    // Layers, in the workload's shape.
    let mut sampler = ArrivalSampler::new(spec.arrivals, seed);
    let mut block = Vec::with_capacity(64);
    let mut now = 0.0;
    let arrivals_ns = tr.rate("arrivals.fill_after", || {
        for _ in 0..64 {
            sampler.fill_after(now, 64, &mut block);
            now = *block.last().expect("64 arrivals");
        }
        black_box(now);
        64 * 64
    });

    let fleet = loaded_fleet(&spec, seed);
    let mut engine = PlacementEngine::new(spec.placement, &fleet.membership(), seed);
    let mut key = seed;
    let placement_ns = tr.rate("placement.place", || {
        let mut acc = 0usize;
        for _ in 0..4096 {
            key = mix64(key);
            acc ^= engine.place(&fleet, key);
        }
        black_box(acc);
        4096
    });

    // Join then depart on servers in a scattered order, so a wide
    // fleet's working set is touched as a run touches it.
    let mut fleet = Fleet::new(spec.speeds.as_slice(), spec.queue_capacity);
    let mut i = 0usize;
    let mut t = 0.0;
    let fleet_ns = tr.rate("fleet.try_join+depart", || {
        for _ in 0..4096 {
            i = (i + 0x9E37_79B9) % n;
            t += 1e-3;
            fleet.try_join(i, t);
            black_box(fleet.depart(i, t + 0.5));
        }
        4096
    });

    // The workload's own scheduler over its fleet, then both schedulers
    // swept over population at unit speed.
    let sched_ns = tr.rate(
        "sched.hold",
        hold(scheduler_of(&spec), spec.speeds.as_slice(), seed),
    );
    let mut sweep = Vec::new();
    for &pop in &SWEEP {
        let unit = vec![1; pop];
        sweep.push((
            tr.rate("sched.lazy.hold", hold(Sched::Lazy, &unit, seed)),
            tr.rate("sched.calendar.hold", hold(Sched::Calendar, &unit, seed)),
        ));
    }

    let ids: Vec<u64> = (0..n as u64).collect();
    let ring = MembershipRing::new(seed, RING_VNODES, &ids);
    let mut key = seed;
    let ring_successor_ns = tr.rate("ring.successor", || {
        let mut acc = 0usize;
        for _ in 0..4096 {
            key = mix64(key);
            acc ^= ring.ring().successor(key);
        }
        black_box(acc);
        4096
    });
    // Each update retires a random peer and admits a fresh id, as a
    // churn tick does.
    let mut mring = ring.clone();
    let mut ids = ids;
    let mut next_id = n as u64;
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(mix64(seed ^ 0xc4a2));
    let ring_update_ns = tr.rate("ring.update", || {
        ids.remove(rng.next_below(ids.len() as u64) as usize);
        ids.push(next_id);
        next_id += 1;
        mring.update(&ids);
        1
    });

    let mut rng = Xoshiro256PlusPlus::from_u64_seed(mix64(seed ^ 0x1a7));
    let latencies: Vec<f64> = (0..w.requests).map(|_| rng.next_f64()).collect();
    let drained = Fleet::new(spec.speeds.as_slice(), spec.queue_capacity);
    let collect_s = tr.each(
        "metrics.collect",
        5,
        || latencies.clone(),
        |l| ClusterMetrics::collect(&drained, l, w.requests, 0, 0, 0, 1.0),
    );
    drop(latencies);

    let setup_fleet_s = tr.each(
        "setup.fleet",
        7,
        || (),
        |()| Fleet::new(spec.speeds.as_slice(), spec.queue_capacity),
    );
    let membership = fleet.membership();
    let setup_placement_s = tr.each(
        "setup.placement",
        7,
        || (),
        |()| PlacementEngine::new(spec.placement, &membership, seed),
    );

    // Layer budget: each layer's cost per offered request.
    let sched_pairs = ratio(first.completed.saturating_sub(bypass), w.requests);
    let budget = [
        ("arrivals", arrivals_ns),
        ("placement", placement_ns),
        ("fleet", fleet_ns),
        ("sched", sched_ns * sched_pairs),
        ("metrics", collect_s * 1e9 / requests),
    ];
    let layer_sum: f64 = budget.iter().map(|(_, ns)| ns).sum();
    let residual = e2e_ns - layer_sum;
    println!("layer budget per request (serial engine; end to end {e2e_ns:.2} ns/req):");
    for (name, ns) in budget {
        println!(
            "  {name:<10} {ns:>10.2} ns/req  {:>6.1}%",
            100.0 * ns / e2e_ns
        );
    }
    println!(
        "  (sched = {sched_ns:.2} ns/pair x {sched_pairs:.4} pairs/req: completed {} - bypassed {bypass}, over {} requests)",
        first.completed, w.requests
    );
    println!("  sum        {layer_sum:>10.2} ns/req");
    println!(
        "  residual   {residual:>+10.2} ns/req  {:>+6.1}%  (drive loop and everything unmeasured)",
        100.0 * residual / e2e_ns
    );
    println!(
        "sharded: w1 {w1_rps:.4e} req/s, w{wn} {wn_rps:.4e} req/s, serial {serial_rps:.4e} req/s"
    );
    println!(
        "ratios: lazy.slots_scanned/sim.arrived = {}/{arrived}, lazy.stale_pops/lazy.ring_inserts = {}/{}, \
         calendar.ring_spills/sim.arrived = {}/{arrived}, sim.next_free_bypass/sim.arrived = {bypass}/{arrived}, \
         sim.arrived/sharded.epochs = {sharded_arrived}/{epochs}",
        c("lazy.slots_scanned"),
        c("lazy.stale_pops"),
        c("lazy.ring_inserts"),
        c("calendar.ring_spills"),
    );
    tr.summary();

    let mut metrics = vec![
        ("arrivals.ns_per_req", arrivals_ns),
        ("placement.ns_per_req", placement_ns),
        ("fleet.ns_per_pair", fleet_ns),
        ("sched.ns_per_pair", sched_ns),
    ];
    const LAZY: [&str; 4] = [
        "sched.lazy.ns_per_pair.n64",
        "sched.lazy.ns_per_pair.n1024",
        "sched.lazy.ns_per_pair.n16384",
        "sched.lazy.ns_per_pair.n131072",
    ];
    const CALENDAR: [&str; 4] = [
        "sched.calendar.ns_per_pair.n64",
        "sched.calendar.ns_per_pair.n1024",
        "sched.calendar.ns_per_pair.n16384",
        "sched.calendar.ns_per_pair.n131072",
    ];
    for (k, (lazy, calendar)) in sweep.into_iter().enumerate() {
        metrics.push((LAZY[k], lazy));
        metrics.push((CALENDAR[k], calendar));
    }
    metrics.extend([
        ("ring.ns_per_successor", ring_successor_ns),
        ("ring.ns_per_update", ring_update_ns),
        ("metrics.collect_s", collect_s),
        ("setup.fleet_s", setup_fleet_s),
        ("setup.placement_s", setup_placement_s),
        ("loop.residual_ns_per_req", residual),
        ("sharded.w1_req_per_s", w1_rps),
        ("sharded.efficiency", wn_rps / (wn as f64 * w1_rps)),
        ("sharded.vs_serial", wn_rps / serial_rps),
        (
            "lazy.slots_scanned_per_req",
            ratio(c("lazy.slots_scanned"), arrived),
        ),
        (
            "lazy.stale_pop_ratio",
            ratio(c("lazy.stale_pops"), c("lazy.ring_inserts")),
        ),
        (
            "calendar.spills_per_req",
            ratio(c("calendar.ring_spills"), arrived),
        ),
        ("calendar.rebuilds", c("calendar.rebuilds") as f64),
        ("sim.bypass_frac", ratio(bypass, arrived)),
        ("sharded.arrivals_per_epoch", ratio(sharded_arrived, epochs)),
        ("trace.overhead", e2e_s / traced_s),
    ]);
    (checks, metrics)
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench run|trace --workload {} --seed N --seconds S",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    for pair in args[1..].chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--workload", Some(v)) => workload = Workload::find(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            _ => usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    let (checks, metrics) = match mode.as_str() {
        "run" => run_mode(w, seed, seconds),
        "trace" => trace_mode(w, seed, seconds),
        _ => usage(),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}
