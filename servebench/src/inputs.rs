//! Seeded input generation: every request a run sends, and the exact
//! reference answer each one is checked against, are made here before the
//! timed phase starts. The same seed always gives the same inputs.

use ohmflow::quantize::Quantizer;
use ohmflow::{GraphDelta, SolveOptions};
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_graph::{binfmt, dimacs, generators, FlowNetwork};
use ohmflow_maxflow::{push_relabel, PushRelabelVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Capacities of generated requests are drawn uniformly from `1..=MAX_CAP`.
pub const MAX_CAP: i64 = 100;

/// Op-amp gain-bandwidth of the evaluation configuration (§5.1).
pub const EVAL_GBW_HZ: f64 = 10e9;

/// The evaluation configuration the `transient_*` workloads solve under.
pub fn evaluation() -> SolveOptions {
    SolveOptions::evaluation(EVAL_GBW_HZ)
}

/// A graph family a request is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// R-MAT sparse preset (`|E| = 4|V|`, Fig. 10b) with this many vertices.
    Sparse(usize),
    /// R-MAT dense preset (`|E| = |V|²/128`, Fig. 10a).
    Dense(usize),
    /// Square grid of this side with a super-source and super-sink.
    Grid(usize),
    /// Layered DAG of this many layers of this width, consecutive layers
    /// completely connected.
    Layered(usize, usize),
}

impl Shape {
    /// Short label used in the per-shape failure table.
    pub fn class(self) -> &'static str {
        match self {
            Shape::Sparse(n) if n < 64 => "tiny_sparse",
            Shape::Dense(n) if n < 96 => "tiny_dense",
            Shape::Grid(s) if s < 5 => "tiny_grid",
            Shape::Sparse(_) => "rmat_sparse",
            Shape::Dense(_) => "rmat_dense",
            Shape::Grid(_) => "grid",
            Shape::Layered(..) => "layered",
        }
    }

    /// Generates the topology (capacities uniform in `1..=MAX_CAP`).
    pub fn generate(self, seed: u64) -> FlowNetwork {
        let mut cfg = match self {
            Shape::Sparse(n) => RmatConfig::sparse(n, seed),
            Shape::Dense(n) => RmatConfig::dense(n, seed),
            Shape::Grid(side) => {
                return generators::grid(side, side, MAX_CAP, seed).expect("grid sides are >= 2")
            }
            Shape::Layered(layers, width) => {
                return generators::layered(layers, width, MAX_CAP, seed)
                    .expect("layered shapes are >= 1")
            }
        };
        cfg.max_capacity = MAX_CAP;
        cfg.generate().expect("R-MAT sizes are >= 2 vertices")
    }
}

/// The input generator of one workload family: the same seed gives every
/// family its own independent stream.
fn workload_rng(seed: u64, family: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (family << 56))
}

/// Same topology, fresh uniform capacities.
pub fn recapacitate(g: &FlowNetwork, rng: &mut StdRng) -> FlowNetwork {
    let mut h = FlowNetwork::new(g.vertex_count(), g.source(), g.sink())
        .expect("endpoints come from a valid network");
    for e in g.edges() {
        h.add_edge(e.from, e.to, rng.gen_range(1..=MAX_CAP))
            .expect("edges come from a valid network");
    }
    h
}

/// Exact max-flow value (push-relabel, highest label).
pub fn exact_value(g: &FlowNetwork) -> i64 {
    push_relabel(g, PushRelabelVariant::HighestLabel).value
}

/// Exact max-flow value of the instance the evaluation substrate is
/// actually programmed with: every capacity mapped to its level by the
/// substrate's own quantizer (the configuration's level count spanning
/// `[0, max capacity]`). Returned in flow units.
pub fn quantized_value(g: &FlowNetwork) -> f64 {
    let c_max = g.max_capacity() as f64;
    let levels = evaluation().params.voltage_levels;
    let quantizer = Quantizer::new(levels, 1.0, c_max);
    let mut q = FlowNetwork::new(g.vertex_count(), g.source(), g.sink())
        .expect("endpoints come from a valid network");
    for e in g.edges() {
        let level = i64::from(quantizer.level_index(e.capacity as f64));
        q.add_edge(e.from, e.to, level)
            .expect("edges come from a valid network");
    }
    exact_value(&q) as f64 * c_max / f64::from(levels)
}

/// One stateless solve request: the encoded frame body and its reference.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Wire tag (`TAG_DIMACS` or `TAG_BINARY`).
    pub tag: u8,
    /// Encoded graph.
    pub body: Vec<u8>,
    /// Exact max-flow value.
    pub exact: i64,
    /// Graph family (for the per-shape failure table).
    pub shape: Shape,
    /// Edge count.
    pub edges: usize,
}

impl SolveRequest {
    /// Encodes `g` under `tag` and computes its exact value.
    pub fn new(tag: u8, g: &FlowNetwork, shape: Shape) -> Self {
        let body = if tag == ohmflow_apps::serve::TAG_DIMACS {
            dimacs::write(g).into_bytes()
        } else {
            binfmt::write_binary(g)
        };
        SolveRequest {
            tag,
            body,
            exact: exact_value(g),
            shape,
            edges: g.edge_count(),
        }
    }
}

/// The set-up warm-up of `novel_*`: the paper's Fig. 5a example and one
/// fixed graph of each family, none of which a run's requests repeat.
pub fn warm_up_requests() -> Vec<SolveRequest> {
    let tag = ohmflow_apps::serve::TAG_DIMACS;
    let fig5a = generators::fig5a();
    let mut out = vec![SolveRequest::new(
        tag,
        &fig5a,
        Shape::Sparse(fig5a.vertex_count()),
    )];
    for shape in [Shape::Sparse(16), Shape::Dense(88), Shape::Grid(3)] {
        out.push(SolveRequest::new(tag, &shape.generate(0), shape));
    }
    out
}

fn log_uniform(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    (rng.gen_range(a..=b).exp().round() as usize).clamp(lo, hi)
}

/// Graph sizes a workload draws from: the full-size `Full` scale, or the
/// `Small` scale at which the state-iteration tail costs tens rather than
/// hundreds of median answers, so that one run holds enough answers for
/// its metrics to repeat from seed to seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes of the paper's Fig. 10 and the serving north star.
    Full,
    /// Sub-128-vertex instances of the same families.
    Small,
}

/// `repeat_topology`: a seeded pool of `copies` × eight topologies, planned
/// during set-up (R-MAT sparse and dense presets and grids); every request
/// takes a pool topology with fresh capacities, as an `OFG1` frame.
pub struct RepeatInputs {
    /// Warm-up frames, one per pool topology (sent during set-up).
    pub pool: Vec<SolveRequest>,
    /// Per-connection request lists.
    pub lists: Vec<Vec<SolveRequest>>,
}

pub fn repeat(
    seed: u64,
    scale: Scale,
    copies: usize,
    connections: usize,
    per_connection: usize,
) -> RepeatInputs {
    let mut rng = workload_rng(seed, 1);
    // Pool composition: three R-MAT sparse, three R-MAT dense and two
    // grids per eight topologies.
    let (sparse, dense, side) = match scale {
        Scale::Full => (256..=512, 256..=512, 16..=20),
        Scale::Small => (8..=16, 64..=96, 3..=4),
    };
    // Sizes are spread evenly over each family's range, so every seed's
    // pool has the same size mix; the seed draws the graphs.
    let mut topologies: Vec<(Shape, FlowNetwork)> = Vec::new();
    for copy in 0..copies {
        for kind in 0..8 {
            let shape = match kind {
                0..=2 => Shape::Sparse(evenly(&sparse, copy * 3 + kind, copies * 3)),
                3..=5 => Shape::Dense(evenly(&dense, copy * 3 + kind - 3, copies * 3)),
                _ => Shape::Grid(evenly(&side, copy * 2 + kind - 6, copies * 2)),
            };
            topologies.push((shape, shape.generate(rng.gen())));
        }
    }
    pooled(topologies, &mut rng, connections, per_connection)
}

/// A pool's warm-up frames and per-connection request lists: each request
/// a pool topology drawn by `rng`, with fresh capacities.
fn pooled(
    topologies: Vec<(Shape, FlowNetwork)>,
    rng: &mut StdRng,
    connections: usize,
    per_connection: usize,
) -> RepeatInputs {
    let tag = ohmflow_apps::serve::TAG_BINARY;
    let pool = topologies
        .iter()
        .map(|(shape, g)| SolveRequest::new(tag, g, *shape))
        .collect();
    let lists = (0..connections)
        .map(|_| {
            (0..per_connection)
                .map(|_| {
                    let (shape, g) = &topologies[rng.gen_range(0..topologies.len())];
                    SolveRequest::new(tag, &recapacitate(g, rng), *shape)
                })
                .collect()
        })
        .collect();
    RepeatInputs { pool, lists }
}

/// The `i`-th of `n` sizes spread evenly over `range`, both ends included.
fn evenly(range: &std::ops::RangeInclusive<usize>, i: usize, n: usize) -> usize {
    let (lo, hi) = (*range.start(), *range.end());
    lo + (i * (hi - lo) + (n - 1) / 2) / (n - 1).max(1)
}

/// `g` with its vertices renamed by a seeded random permutation (edge
/// order kept): an isomorphic graph with a topology of its own.
pub fn relabel(g: &FlowNetwork, rng: &mut StdRng) -> FlowNetwork {
    let n = g.vertex_count();
    let mut name: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        name.swap(i, rng.gen_range(0..=i));
    }
    let mut h = FlowNetwork::new(n, name[g.source()], name[g.sink()])
        .expect("endpoints come from a valid network");
    for e in g.edges() {
        h.add_edge(name[e.from], name[e.to], e.capacity)
            .expect("edges come from a valid network");
    }
    h
}

/// The vision-style families of the in-process workloads (grids, as in
/// the image-segmentation workloads the paper motivates, and layered
/// DAGs): the `i`-th shape of a cycle through square grids of side 3–6
/// and layered graphs of 2–4 layers of width 2–5. The program answers
/// every one of them today, where small R-MAT graphs are now and then
/// singular (see `novel_small`).
fn vision_shape(i: usize) -> Shape {
    match i % 8 {
        k @ 0..=3 => Shape::Grid(3 + k),
        k => Shape::Layered(2 + (i / 8) % 3, k - 2),
    }
}

/// `repeat_inproc`: a pool of `copies` × eight vision-style topologies,
/// each copy of a shape under its own vertex labelling; every request a
/// pool topology with fresh capacities, as an `OFG1` frame.
pub fn repeat_vision(
    seed: u64,
    copies: usize,
    connections: usize,
    per_connection: usize,
) -> RepeatInputs {
    let mut rng = workload_rng(seed, 6);
    let topologies: Vec<(Shape, FlowNetwork)> = (0..copies * 8)
        .map(|i| {
            let shape = vision_shape(i);
            (shape, relabel(&shape.generate(rng.gen()), &mut rng))
        })
        .collect();
    pooled(topologies, &mut rng, connections, per_connection)
}

/// The set-up warm-up of `novel_inproc`: one graph of each vision-style
/// shape (from seed 0), none of which a run's requests repeat.
pub fn vision_warm_up() -> Vec<SolveRequest> {
    let mut rng = workload_rng(0, 8);
    let tag = ohmflow_apps::serve::TAG_DIMACS;
    (0..8)
        .map(|i| {
            let shape = vision_shape(i);
            SolveRequest::new(tag, &relabel(&shape.generate(rng.gen()), &mut rng), shape)
        })
        .collect()
}

/// `novel_inproc`: every request a never-seen vertex labelling of a
/// vision-style shape, as a DIMACS frame.
pub fn novel_vision(
    seed: u64,
    connections: usize,
    per_connection: usize,
) -> Vec<Vec<SolveRequest>> {
    let mut rng = workload_rng(seed, 7);
    let tag = ohmflow_apps::serve::TAG_DIMACS;
    (0..connections)
        .map(|_| {
            (0..per_connection)
                .map(|j| {
                    let shape = vision_shape(j);
                    let g = relabel(&shape.generate(rng.gen()), &mut rng);
                    SolveRequest::new(tag, &g, shape)
                })
                .collect()
        })
        .collect()
}

/// `novel_topology`: every request a never-seen graph as a DIMACS frame.
/// Full scale: R-MAT sparse and dense at 128–1024 vertices, grids of side
/// 10–40, and tiny graphs below the small-instance threshold (48 edges).
/// Small scale: the same tiny graphs plus R-MAT at 12–20 (sparse) and
/// 80–96 (dense) vertices and grids of side 3–4.
pub fn novel(
    seed: u64,
    scale: Scale,
    connections: usize,
    per_connection: usize,
) -> Vec<Vec<SolveRequest>> {
    let mut rng = workload_rng(seed, 2);
    let tag = ohmflow_apps::serve::TAG_DIMACS;
    // The families take turns, so every list has the same mix; the seed
    // draws sizes and graphs.
    (0..connections)
        .map(|_| {
            (0..per_connection)
                .map(|j| {
                    let roll = j % 8;
                    let shape = match (roll, scale) {
                        (0, _) => Shape::Sparse(rng.gen_range(6..=11)),
                        (1, _) => Shape::Dense(rng.gen_range(64..=78)),
                        (2, _) => Shape::Grid(rng.gen_range(2..=3)),
                        (3 | 4, Scale::Full) => Shape::Sparse(log_uniform(&mut rng, 128, 1024)),
                        (5, Scale::Full) => Shape::Dense(log_uniform(&mut rng, 128, 1024)),
                        (_, Scale::Full) => Shape::Grid(rng.gen_range(10..=40)),
                        (3 | 4, Scale::Small) => Shape::Sparse(rng.gen_range(12..=20)),
                        (5, Scale::Small) => Shape::Dense(rng.gen_range(80..=96)),
                        (_, Scale::Small) => Shape::Grid(rng.gen_range(3..=4)),
                    };
                    SolveRequest::new(tag, &shape.generate(rng.gen()), shape)
                })
                .collect()
        })
        .collect()
}

/// One delta batch and the exact value of the live graph after it.
#[derive(Debug, Clone)]
pub struct DeltaStep {
    /// The batch, in the benchmark's own edge ids (indices into the
    /// stream's edge table; inserts append to it).
    pub deltas: Vec<GraphDelta>,
    /// Inserts in the batch (each must be answered with a session id).
    pub inserts: usize,
    /// Exact max-flow value of the live graph after the batch.
    pub exact: i64,
}

/// The benchmark's own copy of a session's graph: every edge ever given
/// an id, with its liveness.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    n: usize,
    source: usize,
    sink: usize,
    edges: Vec<(usize, usize, i64, bool)>,
}

impl EdgeTable {
    /// The table of an opening graph.
    pub fn new(g: &FlowNetwork) -> Self {
        EdgeTable {
            n: g.vertex_count(),
            source: g.source(),
            sink: g.sink(),
            edges: g
                .edges()
                .iter()
                .map(|e| (e.from, e.to, e.capacity, true))
                .collect(),
        }
    }

    /// Applies one batch: inserts append, removals clear liveness.
    pub fn apply(&mut self, deltas: &[GraphDelta]) {
        for &d in deltas {
            match d {
                GraphDelta::SetCapacity { edge, capacity } => self.edges[edge].2 = capacity,
                GraphDelta::RemoveEdge { edge } => self.edges[edge].3 = false,
                GraphDelta::InsertEdge { from, to, capacity } => {
                    self.edges.push((from, to, capacity, true))
                }
            }
        }
    }

    /// The live graph.
    pub fn live(&self) -> FlowNetwork {
        let mut h =
            FlowNetwork::new(self.n, self.source, self.sink).expect("session endpoints are valid");
        for &(from, to, cap, live) in &self.edges {
            if live {
                h.add_edge(from, to, cap).expect("live edges are valid");
            }
        }
        h
    }
}

/// Rewrites a batch from the benchmark's own edge ids into a session's
/// (`map[benchmark id]` is the session's id of that edge); inserts pass
/// through, and the session answers them with ids the caller appends.
pub fn translate(map: &[usize], deltas: &[GraphDelta]) -> Vec<GraphDelta> {
    deltas
        .iter()
        .map(|&d| match d {
            GraphDelta::SetCapacity { edge, capacity } => GraphDelta::SetCapacity {
                edge: map[edge],
                capacity,
            },
            GraphDelta::RemoveEdge { edge } => GraphDelta::RemoveEdge { edge: map[edge] },
            insert => insert,
        })
        .collect()
}

/// One session's delta stream: the opening graph and its batches.
pub struct DeltaStream {
    /// The opening graph.
    pub graph: FlowNetwork,
    /// `OFG1`-encoded opening graph.
    pub open_body: Vec<u8>,
    /// Exact value of the opening graph.
    pub open_exact: i64,
    /// The batches, in order.
    pub steps: Vec<DeltaStep>,
}

/// Deltas per batch.
pub const DELTA_K: usize = 8;

/// `delta_stream`: seeded R-MAT sparse session graphs (1024–2048 vertices
/// at full scale, 16–24 at small scale), each with a stream of mixed
/// k=8 batches: capacity updates, removals, re-insertions of removed
/// edges and a small share of brand-new edges. References come from the
/// benchmark's own copy of the live graph.
pub fn delta(seed: u64, scale: Scale, sessions: usize, batches: usize) -> Vec<DeltaStream> {
    let mut rng = workload_rng(seed, 3);
    let sizes = match scale {
        Scale::Full => 1024..=2048,
        Scale::Small => 16..=24,
    };
    (0..sessions)
        .map(|_| {
            let g = Shape::Sparse(rng.gen_range(sizes.clone())).generate(rng.gen());
            let n = g.vertex_count();
            let mut table = EdgeTable::new(&g);
            let mut removed: Vec<usize> = Vec::new();
            let steps = (0..batches)
                .map(|_| {
                    let mut deltas = Vec::with_capacity(DELTA_K);
                    let mut inserts = 0;
                    // Ids this batch inserted or already changed.
                    let mut touched: Vec<usize> = Vec::new();
                    let mut next_id = table.edges.len();
                    while deltas.len() < DELTA_K {
                        let roll = rng.gen_range(0..100u32);
                        if roll < 1 {
                            // Brand-new edge between two random vertices.
                            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                            if from == to {
                                continue;
                            }
                            deltas.push(GraphDelta::InsertEdge {
                                from,
                                to,
                                capacity: rng.gen_range(1..=MAX_CAP),
                            });
                        } else if roll < 26 && !removed.is_empty() {
                            // Re-insert a removed edge at its old endpoints.
                            let old = removed.swap_remove(rng.gen_range(0..removed.len()));
                            let (from, to, _, _) = table.edges[old];
                            deltas.push(GraphDelta::InsertEdge {
                                from,
                                to,
                                capacity: rng.gen_range(1..=MAX_CAP),
                            });
                        } else {
                            let edge = rng.gen_range(0..table.edges.len());
                            if !table.edges[edge].3 || touched.contains(&edge) {
                                continue;
                            }
                            touched.push(edge);
                            if roll < 51 {
                                removed.push(edge);
                                deltas.push(GraphDelta::RemoveEdge { edge });
                            } else {
                                deltas.push(GraphDelta::SetCapacity {
                                    edge,
                                    capacity: rng.gen_range(1..=MAX_CAP),
                                });
                            }
                            continue;
                        }
                        inserts += 1;
                        touched.push(next_id);
                        next_id += 1;
                    }
                    table.apply(&deltas);
                    DeltaStep {
                        deltas,
                        inserts,
                        exact: exact_value(&table.live()),
                    }
                })
                .collect();
            DeltaStream {
                open_body: binfmt::write_binary(&g),
                open_exact: exact_value(&g),
                graph: g,
                steps,
            }
        })
        .collect()
}

/// One `solve_many` batch of same-topology capacity variants.
pub struct TransientBatch {
    /// The variants.
    pub graphs: Vec<FlowNetwork>,
    /// Exact values of the variants' quantized instances (flow units).
    pub quantized: Vec<f64>,
    /// Graph family.
    pub shape: Shape,
}

/// The set-up warm-up batches of `transient_*`: capacity variants of the
/// paper's Fig. 5a example and of four fixed small R-MAT graphs of both
/// presets, none of which a run's batches repeat.
pub fn transient_warm_up() -> Vec<TransientBatch> {
    let mut rng = workload_rng(0, 5);
    let fig5a = generators::fig5a();
    let shapes = [
        Shape::Sparse(12),
        Shape::Sparse(16),
        Shape::Sparse(20),
        Shape::Dense(80),
    ];
    let mut bases = vec![(Shape::Sparse(fig5a.vertex_count()), fig5a)];
    bases.extend(shapes.map(|shape| (shape, shape.generate(0))));
    bases
        .into_iter()
        .map(|(shape, base)| {
            let graphs: Vec<FlowNetwork> = (0..TRANSIENT_BATCH)
                .map(|_| recapacitate(&base, &mut rng))
                .collect();
            TransientBatch {
                quantized: graphs.iter().map(quantized_value).collect(),
                graphs,
                shape,
            }
        })
        .collect()
}

/// Variants per `solve_many` batch.
pub const TRANSIENT_BATCH: usize = 8;

/// `transient_sweep`: `solve_many` batches of 8 capacity variants of one
/// R-MAT graph (sparse and dense preset in turn; 256–448 vertices at full scale as
/// in Fig. 10; at small scale 12–20 sparse or 64–96 dense).
pub fn transient(seed: u64, scale: Scale, batches: usize) -> Vec<TransientBatch> {
    let mut rng = workload_rng(seed, 4);
    let (sparse, dense) = match scale {
        Scale::Full => (256..=448, 256..=448),
        Scale::Small => (12..=20, 64..=96),
    };
    // Sparse and dense alternate, each cycling through its sizes, so every
    // run has the same mix; the seed draws the graphs.
    let cycle = |range: &std::ops::RangeInclusive<usize>, i: usize| {
        range.start() + (i * 7) % (range.end() - range.start() + 1)
    };
    (0..batches)
        .map(|i| {
            let shape = if i % 2 == 0 {
                Shape::Sparse(cycle(&sparse, i / 2))
            } else {
                Shape::Dense(cycle(&dense, i / 2))
            };
            let base = shape.generate(rng.gen());
            let graphs: Vec<FlowNetwork> = (0..TRANSIENT_BATCH)
                .map(|_| recapacitate(&base, &mut rng))
                .collect();
            TransientBatch {
                quantized: graphs.iter().map(quantized_value).collect(),
                graphs,
                shape,
            }
        })
        .collect()
}
