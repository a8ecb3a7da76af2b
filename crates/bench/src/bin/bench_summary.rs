//! CI bench gate: hub-label construction and the MIP solver comparison,
//! emitting machine-readable artifacts.
//!
//! ```text
//! cargo run --release -p rideshare-bench --bin bench_summary -- \
//!     --scale smoke --hublabel-out BENCH_hublabel.json --mip-out BENCH_mip.json
//! ```
//!
//! Two artifacts are written:
//!
//! * `BENCH_hublabel.json` — hub-label build time / mean label size /
//!   distance-query latency (the stateless merge, and a distance miss
//!   through the oracle — endpoints that never repeat, and runs that share
//!   one as a dispatcher's do), the distance cache's own two costs (a
//!   hit, and a miss that evicts from a full cache), and the cost of a
//!   path unpacked from the labels (with its mean hop count, so the cost
//!   per hop can be read off) beside the point-to-point Dijkstra it
//!   replaced, on 20×20, 40×40 and 80×80 grids plus the ring-radial city
//!   preset; and the label persistence round-trip. Pass `--paper-build`
//!   to additionally run the ≥100k-vertex paper-scale build (minutes) and
//!   record it as the headline entry.
//! * `BENCH_mip.json` — MIP-matcher solve time versus trips on board
//!   (1/2/3/4) for the sparse revised-simplex solver and the frozen dense
//!   tableau baseline ([`rideshare_bench::baseline::dense_mip`]), each
//!   instance timed as the fastest of three interleaved runs per solver
//!   wherever both run, with warm/cold solve counts and
//!   objective-equivalence checks on every run.
//!
//! The process exits non-zero when any correctness or regression gate
//! fails:
//!
//! * hub-label distances diverge from Dijkstra ground truth;
//! * a distance miss through the oracle (which scans one label against the
//!   other's, kept spread by hub rank) differs in any bit from
//!   `HubLabels::distance` (which merges them);
//! * `HubLabels::path`, called directly, declines a sampled pair or
//!   unpacks a vertex sequence other than Dijkstra's (the oracles would
//!   hide a broken chain behind their Dijkstra arm; this gate does not);
//! * the edge weights along a sampled unpacked path do not sum to the
//!   label distance bit for bit (on the 2⁻¹⁶ m grid such sums are exact);
//! * the persistence round-trip does not reproduce the labels;
//! * the sparse MIP solver disagrees with the dense baseline on any
//!   instance (objective mismatch or an invalid decoded schedule), or is
//!   not ≥10× faster at 3 trips on board.
//!
//! Absolute time thresholds are deliberately not enforced (shared runners
//! are too noisy); the MIP speedup gate is a same-process ratio. The
//! hub-label build, query, path, distance-miss and cache timings are
//! recorded without a gate; label size, which the build is judged by, is
//! pinned as data by a `roadnet::hub_label` unit test.

use std::time::Instant;

use kinetic_core::algorithms::{MipBuild, MipFormulation};
use rideshare_bench::baseline::dense_mip;
use rideshare_bench::{mip_fixture, parse_num};
use rideshare_mip::{SolveError, SolveOptions};
use rideshare_workload::CityConfig;
use roadnet::{
    CachedOracle, DijkstraEngine, DistanceOracle, GeneratorConfig, HubLabels, NetworkKind, NodeId,
    RoadNetwork, ShortestPathEngine,
};

/// One benchmarked hub-label network preset.
struct HubLabelPoint {
    name: String,
    nodes: usize,
    edges: usize,
    build_ms: f64,
    mean_label_size: f64,
    total_entries: usize,
    query_ns: f64,
    miss_ns: f64,
    miss_shared_endpoint_ns: f64,
    hit_ns: f64,
    full_cache_miss_ns: f64,
    path_ns: f64,
    /// Mean edges per unpacked path, so `path_ns` reads as a cost per hop.
    path_hops_mean: f64,
    dijkstra_path_ns: f64,
    exact: bool,
    spread_exact: bool,
    paths_exact: bool,
    path_weight_exact: bool,
    persist: Option<PersistPoint>,
}

struct PersistPoint {
    bytes: usize,
    save_ms: f64,
    load_ms: f64,
    roundtrip_identical: bool,
}

/// Deterministic query pairs spread over the vertex range.
fn query_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| (((i * 37) % n) as NodeId, ((i * 101 + 13) % n) as NodeId))
        .collect()
}

/// The exactness gates over sampled pairs, against Dijkstra ground truth:
/// the label distance equals Dijkstra's bit for bit, the pair unpacks
/// straight from the labels to Dijkstra's vertex sequence (the presets'
/// jittered weights make shortest paths unique), and the edge weights along
/// it add up to the label distance bit for bit (grid sums are exact).
fn exact_vs_dijkstra(graph: &RoadNetwork, labels: &HubLabels, pairs: usize) -> [bool; 3] {
    let dij = DijkstraEngine::new(graph);
    let mut ok = [true; 3];
    for (s, t) in query_pairs(graph.node_count(), pairs) {
        let (expect, got) = (dij.distance(s, t), labels.distance(s, t));
        if ok[0] && expect.map(f64::to_bits) != got.map(f64::to_bits) {
            eprintln!("  EXACTNESS FAILURE at ({s}, {t}): dijkstra {expect:?} vs labels {got:?}");
            ok[0] = false;
        }
        let (expect, path) = (dij.path(s, t).map(|(_, p)| p), labels.path(s, t));
        if ok[1] && (path.is_none() || path != expect) {
            eprintln!("  PATH FAILURE at ({s}, {t}): dijkstra {expect:?} vs labels {path:?}");
            ok[1] = false;
        }
        let weight = |w: &[NodeId]| graph.edge_weight(w[0], w[1]).unwrap_or(f64::NAN);
        let edges = path.iter().flat_map(|p| p.windows(2));
        let sum = edges.fold(0.0, |acc, w| acc + weight(w));
        if ok[2] && path.is_some() && got.map(f64::to_bits) != Some(sum.to_bits()) {
            eprintln!("  PATH WEIGHT FAILURE at ({s}, {t}): the edges sum to {sum}");
            ok[2] = false;
        }
    }
    ok
}

/// Latency of one path computation over sampled pairs, in nanoseconds (the
/// fastest of 31 passes, so slow passes do not move it), and the
/// mean edge count of the paths found; the same pairs whichever engine
/// `path` calls.
fn min_path_ns(n: usize, path: impl Fn(NodeId, NodeId) -> Option<Vec<NodeId>>) -> (f64, f64) {
    let pairs = query_pairs(n, 128);
    let run = |acc: &mut (usize, usize)| {
        for &(s, t) in &pairs {
            if let Some(p) = path(s, t) {
                acc.0 += p.len() - 1;
                acc.1 += 1;
            }
        }
    };
    // Warm once, counting hops, then keep the fastest of 31 passes.
    let mut acc = (0usize, 0usize);
    run(&mut acc);
    let hops_mean = acc.0 as f64 / acc.1.max(1) as f64;
    let mut ns = f64::INFINITY;
    for _ in 0..31 {
        let timer = Instant::now();
        run(&mut acc);
        ns = ns.min(timer.elapsed().as_nanos() as f64 / pairs.len() as f64);
    }
    std::hint::black_box(acc);
    (ns, hops_mean)
}

/// Mean query latency over sampled pairs, in nanoseconds.
fn mean_query_ns(labels: &HubLabels, n: usize) -> f64 {
    let pairs = query_pairs(n, 512);
    // Warm once, then time several passes.
    let mut acc = 0.0f64;
    for &(s, t) in &pairs {
        acc += labels.distance(s, t).unwrap_or(0.0);
    }
    let timer = Instant::now();
    let passes = 20;
    for _ in 0..passes {
        for &(s, t) in &pairs {
            acc += labels.distance(s, t).unwrap_or(0.0);
        }
    }
    let ns = timer.elapsed().as_nanos() as f64 / (passes * pairs.len()) as f64;
    std::hint::black_box(acc);
    ns
}

/// Mean nanoseconds per `oracle.dist` over `passes` runs of `queries`.
fn mean_dist_ns(oracle: &CachedOracle<'_>, queries: &[(NodeId, NodeId)], passes: usize) -> f64 {
    let mut acc = 0.0f64;
    let timer = Instant::now();
    for _ in 0..passes {
        for &(s, t) in queries {
            acc += oracle.dist(s, t);
        }
    }
    let ns = timer.elapsed().as_nanos() as f64 / (passes * queries.len()) as f64;
    std::hint::black_box(acc);
    ns
}

/// Mean cost of a distance miss over `queries`, in nanoseconds, through
/// `oracle` — zero-capacity caches over `labels`, so every call is a miss —
/// and whether every answer equalled `HubLabels::distance` of the pair bit
/// for bit: the `spread_exact` gate.
fn mean_miss_ns(
    oracle: &CachedOracle<'_>,
    labels: &HubLabels,
    queries: &[(NodeId, NodeId)],
) -> (f64, bool) {
    // The first pass warms the oracle and checks it; the rest are timed.
    let mut exact = true;
    for &(s, t) in queries {
        let merged = labels.distance(s.min(t), s.max(t));
        let got = oracle.dist(s, t);
        if got.to_bits() != merged.unwrap_or(f64::INFINITY).to_bits() {
            eprintln!("  SPREAD FAILURE at ({s}, {t}): oracle {got:?} vs merge {merged:?}");
            exact = false;
        }
    }
    (mean_dist_ns(oracle, queries, 20), exact)
}

/// The shape of a dispatcher's distance misses: runs of 40 queries that
/// share one endpoint (a new request's pickup or drop-off) on alternating
/// sides, against vertices drawn from `pairs`.
fn shared_endpoint_runs(pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    pairs
        .chunks(40)
        .flat_map(|run| {
            let shared = run[0].0;
            run.iter().enumerate().filter_map(move |(i, &(_, x))| {
                (x != shared).then_some(if i % 2 == 0 { (x, shared) } else { (shared, x) })
            })
        })
        .collect()
}

/// `count` distinct unordered pairs, low id first: `(k / n, k % n)` for `k`
/// stepping through `0..n²` by a prime, keeping the low-id-first ones.
fn fresh_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u64;
    (0u64..)
        .map(|i| i * 1_000_003 % (n * n))
        .map(|k| ((k / n) as NodeId, (k % n) as NodeId))
        .filter(|&(s, t)| s < t)
        .take(count)
        .collect()
}

/// Distance-cache capacity of `CachedOracle::new`, the one `hit_ns` is
/// measured through.
const DEFAULT_CACHE: usize = 1_000_000;
/// Capacity of the oracle `full_cache_miss_ns` fills before it is timed.
const FULL_CACHE: usize = 4_096;

/// The cache's two costs, in nanoseconds: a hit (`queries` again through a
/// warm default-size oracle) and a miss through a full cache (pairs that
/// never repeat, after four times its capacity of others), which pays the
/// lookup, the eviction and the insertion on top of the label scan.
fn cache_ns(graph: &RoadNetwork, labels: &HubLabels, queries: &[(NodeId, NodeId)]) -> (f64, f64) {
    let warm = CachedOracle::with_labels(graph, labels.clone(), DEFAULT_CACHE, 0);
    mean_dist_ns(&warm, queries, 1);
    let hit_ns = mean_dist_ns(&warm, queries, 20);
    let full = CachedOracle::with_labels(graph, labels.clone(), FULL_CACHE, 0);
    let fresh = fresh_pairs(graph.node_count(), 4 * FULL_CACHE + 8_192);
    let (fill, timed) = fresh.split_at(4 * FULL_CACHE);
    mean_dist_ns(&full, fill, 1);
    (hit_ns, mean_dist_ns(&full, timed, 1))
}

/// Benchmarks one network preset: timed build, exactness, query latency,
/// and (optionally) the persistence gate.
fn hublabel_point(
    name: &str,
    graph: &RoadNetwork,
    exact_pairs: usize,
    check_persist: bool,
) -> HubLabelPoint {
    eprintln!(
        "hublabel: {name} ({} nodes, {} edges)...",
        graph.node_count(),
        graph.edge_count()
    );
    let timer = Instant::now();
    let labels = HubLabels::build(graph);
    let build_ms = timer.elapsed().as_secs_f64() * 1e3;
    let [exact, paths_exact, path_weight_exact] = exact_vs_dijkstra(graph, &labels, exact_pairs);
    let dijkstra = DijkstraEngine::new(graph);
    let persist = check_persist.then(|| {
        let path = std::env::temp_dir().join(format!("bench_hublabel_{name}.hlbl"));
        let timer = Instant::now();
        labels.save(graph, &path).expect("save labels");
        let save_ms = timer.elapsed().as_secs_f64() * 1e3;
        let bytes = std::fs::metadata(&path)
            .map(|m| m.len() as usize)
            .unwrap_or(0);
        let timer = Instant::now();
        let back = HubLabels::load(&path, graph).expect("load labels");
        let load_ms = timer.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_file(&path).ok();
        PersistPoint {
            bytes,
            save_ms,
            load_ms,
            roundtrip_identical: back == labels,
        }
    });
    // The pairs `mean_query_ns` merges, through the oracle's miss path.
    let pairs = query_pairs(graph.node_count(), 512);
    let zero_cache = CachedOracle::with_labels(graph, labels.clone(), 0, 0);
    let (miss_ns, random_exact) = mean_miss_ns(&zero_cache, &labels, &pairs);
    let (miss_shared_endpoint_ns, shared_exact) =
        mean_miss_ns(&zero_cache, &labels, &shared_endpoint_runs(&pairs));
    let (hit_ns, full_cache_miss_ns) = cache_ns(graph, &labels, &pairs);
    let (path_ns, path_hops_mean) = min_path_ns(graph.node_count(), |s, t| labels.path(s, t));
    let (dijkstra_path_ns, _) = min_path_ns(graph.node_count(), |s, t| {
        dijkstra.path(s, t).map(|(_, p)| p)
    });
    HubLabelPoint {
        name: name.to_string(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        build_ms,
        mean_label_size: labels.mean_label_size(),
        total_entries: labels.total_label_entries(),
        query_ns: mean_query_ns(&labels, graph.node_count()),
        miss_ns,
        miss_shared_endpoint_ns,
        hit_ns,
        full_cache_miss_ns,
        path_ns,
        path_hops_mean,
        dijkstra_path_ns,
        exact,
        spread_exact: random_exact && shared_exact,
        paths_exact,
        path_weight_exact,
        persist,
    }
}

fn grid_network(side: usize, seed: u64) -> RoadNetwork {
    GeneratorConfig {
        kind: NetworkKind::Grid {
            rows: side,
            cols: side,
        },
        seed,
        edge_dropout: 0.05,
        arterials: true,
        ..GeneratorConfig::default()
    }
    .generate()
}

/// One trips-on-board measurement point of the MIP solver comparison.
struct MipPoint {
    trips: usize,
    instances: usize,
    /// Mean over instances of each one's fastest run ([`MIP_RUNS`] runs up
    /// to [`DENSE_MAX_TRIPS`], one above); `dense_ms_mean` likewise.
    sparse_ms_mean: f64,
    /// `None` above [`DENSE_MAX_TRIPS`] (a single dense solve there runs
    /// for tens of seconds; the frozen baseline exists to be measured, not
    /// waited on).
    dense_ms_mean: Option<f64>,
    speedup: Option<f64>,
    warm_solves: u64,
    cold_solves: u64,
    nodes_explored: u64,
    feasible: usize,
    objective_mismatches: usize,
    guarantee_violations: usize,
}

/// Largest trips-on-board count the dense baseline is timed at.
const DENSE_MAX_TRIPS: usize = 3;
/// The CI gate: sparse must beat dense by at least this factor at 3 trips.
const MIP_GATE_MIN_SPEEDUP: f64 = 10.0;
/// Timed runs of each instance at or below [`DENSE_MAX_TRIPS`],
/// interleaved sparse, dense, sparse, dense, …: each solver's time is its
/// fastest run, so one slow run on a shared machine does not decide the
/// gated speedup.
const MIP_RUNS: usize = 3;

/// Times the sparse production solver against the frozen dense baseline on
/// identical MTZ scheduling models at 1–4 trips on board, checking
/// objective equivalence and service-guarantee validity along the way.
fn mip_section(seed: u64, instances: usize) -> Vec<MipPoint> {
    eprintln!("mip: sparse vs frozen dense baseline at 1..=4 trips...");
    let oracle = mip_fixture::oracle(seed);
    let mut out = Vec::new();
    for trips in 1..=4usize {
        let problems = mip_fixture::problems(&oracle, trips, instances, seed);
        let mut sparse_ms = 0.0f64;
        let mut sparse_timed = 0usize;
        let mut dense_ms = 0.0f64;
        let mut dense_timed = 0usize;
        let mut warm = 0u64;
        let mut cold = 0u64;
        let mut nodes = 0u64;
        let mut feasible = 0usize;
        let mut mismatches = 0usize;
        let mut violations = 0usize;
        for problem in &problems {
            let MipBuild::Built(formulation) = MipFormulation::build(problem, &oracle) else {
                continue;
            };
            let with_dense = trips <= DENSE_MAX_TRIPS;
            let (mut sparse_best, mut dense_best) = (f64::INFINITY, f64::INFINITY);
            let mut agree = true;
            let mut first = None;
            for _ in 0..if with_dense { MIP_RUNS } else { 1 } {
                let timer = Instant::now();
                let sparse = formulation.model.solve_with(&SolveOptions::default());
                sparse_best = sparse_best.min(timer.elapsed().as_secs_f64() * 1e3);
                if with_dense {
                    let timer = Instant::now();
                    let dense = dense_mip::solve_dense(&formulation.model, 200_000);
                    dense_best = dense_best.min(timer.elapsed().as_secs_f64() * 1e3);
                    let equivalent = match (&sparse, &dense) {
                        (Ok(a), Ok(b)) => {
                            (a.objective - b.objective).abs() <= 1e-6 * a.objective.abs().max(1.0)
                        }
                        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => true,
                        _ => false,
                    };
                    if !equivalent {
                        eprintln!(
                            "  MIP EQUIVALENCE FAILURE at {trips} trips: sparse {:?} vs dense {:?}",
                            sparse.as_ref().map(|s| s.objective),
                            dense.as_ref().map(|d| d.objective)
                        );
                        agree = false;
                    }
                }
                first.get_or_insert(sparse);
            }
            sparse_ms += sparse_best;
            sparse_timed += 1;
            if with_dense {
                dense_ms += dense_best;
                dense_timed += 1;
                mismatches += usize::from(!agree);
            }
            if let Some(Ok(sol)) = &first {
                feasible += 1;
                warm += sol.stats.warm_solves;
                cold += sol.stats.cold_solves;
                nodes += sol.stats.nodes_explored;
                // Decoded schedules must satisfy every service guarantee.
                match formulation.decode(sol) {
                    Some(schedule) => {
                        if problem.validate(&schedule, &oracle).is_err() {
                            violations += 1;
                        }
                    }
                    None => violations += 1,
                }
            }
        }
        // Both means divide by the count actually timed (instances whose
        // build short-circuits are skipped for both solvers), so the gated
        // speedup compares like with like.
        let sparse_ms_mean = sparse_ms / sparse_timed.max(1) as f64;
        let dense_ms_mean = (dense_timed > 0).then(|| dense_ms / dense_timed as f64);
        let speedup = dense_ms_mean.map(|d| d / sparse_ms_mean);
        eprintln!(
            "  {trips} trips: sparse {:>9.3} ms  dense {}  speedup {}  warm/cold {}/{}",
            sparse_ms_mean,
            dense_ms_mean.map_or("      n/a".into(), |d| format!("{d:>9.3} ms")),
            speedup.map_or("   n/a".into(), |s| format!("{s:>6.1}x")),
            warm,
            cold,
        );
        out.push(MipPoint {
            trips,
            instances: sparse_timed,
            sparse_ms_mean,
            dense_ms_mean,
            speedup,
            warm_solves: warm,
            cold_solves: cold,
            nodes_explored: nodes,
            feasible,
            objective_mismatches: mismatches,
            guarantee_violations: violations,
        });
    }
    out
}

fn json_escape_free(s: &str) -> &str {
    // Labels and keys in this file are ASCII identifiers; assert rather
    // than implement escaping nobody exercises.
    assert!(
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_/.".contains(c)),
        "label {s:?} would need JSON escaping"
    );
    s
}

/// Prints why the command line was refused and exits 2.
fn refuse(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

fn main() {
    let mut scale = "smoke".to_string();
    let mut hublabel_out = "BENCH_hublabel.json".to_string();
    let mut mip_out = "BENCH_mip.json".to_string();
    let mut paper_build = false;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| refuse(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--scale" => scale = value(),
            "--hublabel-out" => hublabel_out = value(),
            "--mip-out" => mip_out = value(),
            "--paper-build" => paper_build = true,
            "--seed" => seed = parse_num("--seed", &value()).unwrap_or_else(|e| refuse(e)),
            other => refuse(format!(
                "{other}: unknown flag (expected --scale smoke|quick, \
                 --hublabel-out PATH, --mip-out PATH, --paper-build, --seed N)"
            )),
        }
    }

    // MIP instances per trips-on-board point: smoke is sized for every CI
    // push, quick for a steadier mean.
    let mip_instances = match scale.as_str() {
        "smoke" => 3,
        "quick" => 5,
        other => refuse(format!(
            "--scale: unknown scale {other:?} (expected smoke or quick)"
        )),
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());

    // ---- Hub-label construction section -------------------------------
    let mut points = Vec::new();
    points.push(hublabel_point(
        "grid-20x20",
        &grid_network(20, seed),
        400,
        false,
    ));
    let grid40 = grid_network(40, seed);
    points.push(hublabel_point("grid-40x40", &grid40, 400, true));
    points.push(hublabel_point(
        "grid-80x80",
        &grid_network(80, seed),
        120,
        false,
    ));
    let (ring, _) = CityConfig::ring_city().build(seed);
    points.push(hublabel_point("ring-city", &ring, 200, false));
    if paper_build {
        eprintln!("hublabel: building paper-scale network (this takes minutes)...");
        let timer = Instant::now();
        let (paper_net, _) = CityConfig::shanghai_scale().build(seed);
        eprintln!(
            "  generated {} nodes / {} edges in {:.1}s",
            paper_net.node_count(),
            paper_net.edge_count(),
            timer.elapsed().as_secs_f64()
        );
        points.push(hublabel_point("paper-shanghai-scale", &paper_net, 12, true));
    }

    for p in &points {
        eprintln!(
            "{:<22} n={:<7} build {:>10.1} ms  mean label {:>6.1}  query {:>7.1} ns  \
             miss {:>7.1} ns (shared endpoint {:>6.1} ns)  \
             hit {:>5.1} ns  full-cache miss {:>7.1} ns  \
             path {:>8.1} ns / {:>5.1} hops (dijkstra {:>10.1} ns)  exact {}  spread {}  paths {}",
            p.name,
            p.nodes,
            p.build_ms,
            p.mean_label_size,
            p.query_ns,
            p.miss_ns,
            p.miss_shared_endpoint_ns,
            p.hit_ns,
            p.full_cache_miss_ns,
            p.path_ns,
            p.path_hops_mean,
            p.dijkstra_path_ns,
            p.exact,
            p.spread_exact,
            p.paths_exact,
        );
    }
    let exact_ok = points.iter().all(|p| p.exact);
    let spread_ok = points.iter().all(|p| p.spread_exact);
    let paths_ok = points.iter().all(|p| p.paths_exact);
    let path_weight_ok = points.iter().all(|p| p.path_weight_exact);
    let persist_ok = points
        .iter()
        .all(|p| p.persist.as_ref().is_none_or(|q| q.roundtrip_identical));

    let mut hl_json = String::new();
    hl_json.push_str("{\n");
    hl_json.push_str("  \"schema\": \"bench_hublabel/v2\",\n");
    hl_json.push_str(&format!("  \"seed\": {seed},\n"));
    hl_json.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    hl_json.push_str("  \"networks\": [\n");
    for (i, p) in points.iter().enumerate() {
        hl_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"edges\": {}, \"build_ms\": {:.3}, \
             \"mean_label_size\": {:.3}, \"total_entries\": {}, \"query_ns\": {:.1}, \
             \"miss_ns\": {:.1}, \"miss_shared_endpoint_ns\": {:.1}, \
             \"hit_ns\": {:.1}, \"full_cache_miss_ns\": {:.1}, \
             \"path_ns\": {:.1}, \"path_hops_mean\": {:.2}, \"dijkstra_path_ns\": {:.1}, \
             \"exact\": {}, \"spread_exact\": {}, \"paths_exact\": {}, \
             \"path_weight_exact\": {}, \"persist\": {}}}{}\n",
            json_escape_free(&p.name),
            p.nodes,
            p.edges,
            p.build_ms,
            p.mean_label_size,
            p.total_entries,
            p.query_ns,
            p.miss_ns,
            p.miss_shared_endpoint_ns,
            p.hit_ns,
            p.full_cache_miss_ns,
            p.path_ns,
            p.path_hops_mean,
            p.dijkstra_path_ns,
            p.exact,
            p.spread_exact,
            p.paths_exact,
            p.path_weight_exact,
            p.persist.as_ref().map_or("null".to_string(), |q| format!(
                "{{\"bytes\": {}, \"save_ms\": {:.3}, \"load_ms\": {:.3}, \"roundtrip_identical\": {}}}",
                q.bytes, q.save_ms, q.load_ms, q.roundtrip_identical
            )),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    hl_json.push_str("  ],\n");
    hl_json.push_str(&format!(
        "  \"gates\": {{\"exact\": {exact_ok}, \"spread_exact\": {spread_ok}, \
         \"paths_exact\": {paths_ok}, \"path_weight_exact\": {path_weight_ok}, \
         \"persist_roundtrip\": {persist_ok}}}\n"
    ));
    hl_json.push_str("}\n");
    if let Err(e) = std::fs::write(&hublabel_out, &hl_json) {
        eprintln!("failed to write {hublabel_out}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {hublabel_out}");

    // ---- MIP solver section -------------------------------------------
    let mip_points = mip_section(seed, mip_instances);
    let mip_equiv_ok = mip_points
        .iter()
        .all(|p| p.objective_mismatches == 0 && p.guarantee_violations == 0);
    let mip_speedup_3 = mip_points
        .iter()
        .find(|p| p.trips == 3)
        .and_then(|p| p.speedup);
    let mip_speedup_ok = mip_speedup_3.is_some_and(|s| s >= MIP_GATE_MIN_SPEEDUP);

    let mut mip_json = String::new();
    mip_json.push_str("{\n");
    mip_json.push_str("  \"schema\": \"bench_mip/v1\",\n");
    mip_json.push_str(&format!("  \"seed\": {seed},\n"));
    mip_json.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    mip_json.push_str("  \"points\": [\n");
    for (i, p) in mip_points.iter().enumerate() {
        mip_json.push_str(&format!(
            "    {{\"trips\": {}, \"instances\": {}, \"sparse_ms_mean\": {:.6}, \
             \"dense_ms_mean\": {}, \"speedup\": {}, \"warm_solves\": {}, \
             \"cold_solves\": {}, \"nodes_explored\": {}, \"feasible\": {}, \
             \"objective_mismatches\": {}, \"guarantee_violations\": {}}}{}\n",
            p.trips,
            p.instances,
            p.sparse_ms_mean,
            p.dense_ms_mean
                .map_or("null".to_string(), |v| format!("{v:.6}")),
            p.speedup.map_or("null".to_string(), |v| format!("{v:.3}")),
            p.warm_solves,
            p.cold_solves,
            p.nodes_explored,
            p.feasible,
            p.objective_mismatches,
            p.guarantee_violations,
            if i + 1 == mip_points.len() { "" } else { "," }
        ));
    }
    mip_json.push_str("  ],\n");
    mip_json.push_str(&format!(
        "  \"gates\": {{\"equivalence\": {mip_equiv_ok}, \
         \"gate_min_speedup_vs_dense_3trips\": {MIP_GATE_MIN_SPEEDUP}, \
         \"speedup_vs_dense_3trips\": {}, \"speedup\": {mip_speedup_ok}}}\n",
        mip_speedup_3.map_or("null".to_string(), |v| format!("{v:.3}")),
    ));
    mip_json.push_str("}\n");
    if let Err(e) = std::fs::write(&mip_out, &mip_json) {
        eprintln!("failed to write {mip_out}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {mip_out}");

    let mut failed = false;
    if !exact_ok {
        eprintln!("FAIL: hub-label distances diverged from Dijkstra ground truth");
        failed = true;
    }
    if !spread_ok {
        eprintln!("FAIL: a distance miss through the oracle differed from the label merge");
        failed = true;
    }
    if !paths_ok {
        eprintln!("FAIL: paths unpacked from the hub labels diverged from Dijkstra's");
        failed = true;
    }
    if !path_weight_ok {
        eprintln!("FAIL: edge weights along an unpacked path did not sum to the label distance");
        failed = true;
    }
    if !persist_ok {
        eprintln!("FAIL: persisted hub labels did not round-trip identically");
        failed = true;
    }
    if !mip_equiv_ok {
        eprintln!(
            "FAIL: sparse MIP solver diverged from the frozen dense baseline \
             (objective mismatch or guarantee violation)"
        );
        failed = true;
    }
    if !mip_speedup_ok {
        eprintln!(
            "FAIL: MIP speedup gate (need >= {MIP_GATE_MIN_SPEEDUP}x vs the frozen dense \
             solver at 3 trips, measured {mip_speedup_3:?})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "OK: hub labels exact for distances and paths, deterministic across workers and \
         persistable; MIP solver equivalent to the dense baseline and {:.1}x faster at 3 trips",
        mip_speedup_3.unwrap_or(f64::NAN),
    );
}
