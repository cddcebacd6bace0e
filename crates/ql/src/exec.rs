//! Executor: a session is one more client of a [`ServiceGroup`].
//!
//! Traversal statements (KHOP/BFS) become tickets on the group's
//! serving path, which forms them into shared lane batches beside
//! every other client's traversals — the paper's concurrent query
//! path — and answers each for the epoch it was admitted to, through
//! the group's cache and index. Analytic statements (PAGERANK,
//! COMPONENTS, …) run on the engine value serving when the wave
//! begins ([`ServiceGroup::engine`]), so they read one epoch. Response
//! times are measured from wave submission, so a client sees exactly
//! what a multi-user deployment would.

use crate::ast::{Answer, Query, QueryOutput};
use cgraph_core::engine::DistributedEngine;
use cgraph_core::pcm::{PartitionCtx, PartitionProgram};
use cgraph_core::{KhopQuery, QueryTicket, ServiceGroup};
use cgraph_graph::VertexId;
use std::time::Instant;

/// A query session: a client of one service group.
pub struct Session<'g> {
    group: &'g ServiceGroup,
}

impl<'g> Session<'g> {
    /// Opens a session on `group`.
    pub fn new(group: &'g ServiceGroup) -> Self {
        Self { group }
    }

    /// Executes a single statement.
    pub fn execute(&self, query: Query) -> Answer {
        self.execute_batch(vec![query]).pop().expect("one answer per query")
    }

    /// Every vertex operand a statement names, for validation.
    fn vertex_operands(q: &Query) -> Vec<u64> {
        match q {
            Query::Khop { source, .. } | Query::Bfs { source } | Query::Sssp { source, .. } => {
                vec![*source]
            }
            Query::Reachable { source, target, .. } => vec![*source, *target],
            _ => vec![],
        }
    }

    /// Executes a wave of statements submitted simultaneously.
    /// Traversals are submitted to the group first, in program order;
    /// then every statement is answered in order, a traversal by
    /// redeeming its ticket. Statements naming vertices outside the
    /// graph, and traversals the group refuses, are answered with
    /// [`QueryOutput::Error`] instead of being executed.
    pub fn execute_batch(&self, queries: Vec<Query>) -> Vec<Answer> {
        let submit = Instant::now();
        let engine = self.group.engine();
        let n = engine.num_vertices();
        // `Ok(None)`: an analytic statement, run below.
        let pending: Vec<Result<Option<QueryTicket>, String>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if let Some(&bad) = Self::vertex_operands(q).iter().find(|&&v| v >= n) {
                    return Err(format!("vertex {bad} does not exist (graph has {n} vertices)"));
                }
                let traversal = match q {
                    Query::Khop { source, k, .. } => KhopQuery::single(i, *source, *k),
                    Query::Bfs { source } => KhopQuery::bfs(i, *source),
                    _ => return Ok(None),
                };
                self.group.submit(traversal).map(Some).map_err(|e| e.to_string())
            })
            .collect();
        queries
            .into_iter()
            .zip(pending)
            .enumerate()
            .map(|(index, (query, pending))| {
                let output = match pending {
                    Err(msg) => QueryOutput::Error(msg),
                    Ok(Some(ticket)) => match ticket.wait() {
                        Ok(mut r) => {
                            // The service trims a lane's trailing zero
                            // levels, so what it lists does not depend
                            // on what else is in the wave.
                            let list = match query {
                                Query::Khop { list_levels, .. } => list_levels,
                                _ => 0,
                            };
                            r.per_level.truncate(list);
                            QueryOutput::Reach { visited: r.visited, levels: r.per_level }
                        }
                        Err(e) => QueryOutput::Error(e.to_string()),
                    },
                    Ok(None) => run_analytic(&engine, &query),
                };
                Answer { index, query, output, response_time: submit.elapsed() }
            })
            .collect()
    }
}

fn reachable(engine: &DistributedEngine, source: u64, target: u64, k: u32) -> bool {
    if source == target {
        return true;
    }
    // Hop-exact membership, independent of edge weights: BFS depths via
    // the vertex-centric program, then compare to k.
    let depths = engine.run_vertex_program(&cgraph_analytics::VcBfs { source });
    depths[target as usize] <= k as u64
}

/// STATS over the engine value's view: each partition's edge count and
/// largest out-degree, read in `init`, so the run is one superstep.
#[derive(Default)]
struct DegreeSummary {
    edges: u64,
    max_degree: u64,
}

impl PartitionProgram for DegreeSummary {
    type Out = Self;

    fn init(&mut self, ctx: &mut PartitionCtx<'_>) {
        for v in ctx.local_vertices() {
            let d = ctx.out_degree(v) as u64;
            self.edges += d;
            self.max_degree = self.max_degree.max(d);
        }
        ctx.vote_to_halt();
    }

    fn compute(&mut self, _: &mut PartitionCtx<'_>, _: &[(VertexId, u64)]) {}

    fn finish(self, _: &PartitionCtx<'_>) -> Self {
        self
    }
}

fn run_analytic(engine: &DistributedEngine, q: &Query) -> QueryOutput {
    match q {
        Query::Reachable { source, target, k } => {
            QueryOutput::Bool(reachable(engine, *source, *target, *k))
        }
        Query::Sssp { source, bound } => {
            let dist = match bound {
                Some(b) => cgraph_analytics::sssp_within(engine, *source, *b),
                None => cgraph_analytics::sssp(engine, *source),
            };
            let finite: Vec<f32> = dist.into_iter().filter(|d| d.is_finite()).collect();
            QueryOutput::Distances {
                reachable: finite.len() as u64 - 1, // exclude the source
                max_distance: finite.iter().copied().fold(0.0, f32::max),
            }
        }
        Query::PageRank { iterations } => {
            let ranks = cgraph_analytics::pagerank(engine, *iterations);
            let mut indexed: Vec<(u64, f64)> =
                ranks.into_iter().enumerate().map(|(v, r)| (v as u64, r)).collect();
            indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            indexed.truncate(10);
            QueryOutput::Ranking(indexed)
        }
        Query::Components => {
            let labels = cgraph_analytics::weakly_connected_components(engine);
            let mut uniq = labels;
            uniq.sort_unstable();
            uniq.dedup();
            QueryOutput::Count(uniq.len() as u64)
        }
        Query::KCore { k } => {
            let core = cgraph_analytics::kcore_decomposition(engine);
            QueryOutput::Count(core.iter().filter(|&&c| c >= *k).count() as u64)
        }
        Query::Stats => {
            let parts = engine.run_program(|_| DegreeSummary::default());
            QueryOutput::Summary {
                vertices: engine.num_vertices(),
                edges: parts.iter().map(|p| p.edges).sum(),
                max_degree: parts.iter().map(|p| p.max_degree).max().unwrap_or(0),
            }
        }
        Query::Khop { .. } | Query::Bfs { .. } => unreachable!("traversals are tickets"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_program};
    use cgraph_core::config::EngineConfig;
    use cgraph_core::GroupConfig;
    use cgraph_graph::EdgeList;
    use std::sync::Arc;

    fn group(g: &EdgeList, machines: usize) -> ServiceGroup {
        let engine = DistributedEngine::new(g, EngineConfig::new(machines));
        ServiceGroup::start(Arc::new(engine), GroupConfig::default())
    }

    fn ring_group(n: u64) -> ServiceGroup {
        group(&(0..n).map(|v| (v, (v + 1) % n)).collect(), 2)
    }

    #[test]
    fn khop_statement() {
        let e = ring_group(20);
        let s = Session::new(&e);
        let a = s.execute(parse("KHOP 0 3").unwrap());
        assert_eq!(a.output, QueryOutput::Reach { visited: 4, levels: vec![] });
    }

    #[test]
    fn khop_with_levels() {
        let e = ring_group(20);
        let s = Session::new(&e);
        let a = s.execute(parse("KHOP 0 3 LIST 3").unwrap());
        assert_eq!(a.output, QueryOutput::Reach { visited: 4, levels: vec![1, 1, 1] });
    }

    #[test]
    fn reachable_statement() {
        let e = ring_group(10);
        let s = Session::new(&e);
        assert_eq!(s.execute(parse("REACHABLE 0 3 3").unwrap()).output, QueryOutput::Bool(true));
        assert_eq!(s.execute(parse("REACHABLE 0 4 3").unwrap()).output, QueryOutput::Bool(false));
        assert_eq!(s.execute(parse("REACHABLE 5 5 0").unwrap()).output, QueryOutput::Bool(true));
    }

    #[test]
    fn reachable_is_hop_bounded_not_weight_bounded() {
        // One heavy edge (weight 5.0): the target is 1 hop away even
        // though its weighted distance exceeds k.
        let mut g = EdgeList::new();
        g.push(cgraph_graph::Edge::weighted(0, 1, 5.0));
        let e = group(&g, 1);
        let s = Session::new(&e);
        assert_eq!(
            s.execute(parse("REACHABLE 0 1 1").unwrap()).output,
            QueryOutput::Bool(true),
            "k counts hops, not edge weight"
        );
    }

    #[test]
    fn out_of_range_vertex_rejected_cleanly() {
        let e = ring_group(8);
        let s = Session::new(&e);
        let a = s.execute(parse("KHOP 99 2").unwrap());
        assert!(matches!(a.output, QueryOutput::Error(_)), "{:?}", a.output);
        // The rest of a wave still executes.
        let answers = s.execute_batch(
            parse_program(
                "BFS 99
KHOP 0 1
",
            )
            .unwrap(),
        );
        assert!(matches!(answers[0].output, QueryOutput::Error(_)));
        assert_eq!(answers[1].output, QueryOutput::Reach { visited: 2, levels: vec![] });
    }

    #[test]
    fn mixed_program_wave() {
        let e = ring_group(16);
        let s = Session::new(&e);
        let program = "
            KHOP 0 2
            STATS
            BFS 3
            COMPONENTS
        ";
        let answers = s.execute_batch(parse_program(program).unwrap());
        assert_eq!(answers.len(), 4);
        assert_eq!(answers[0].output, QueryOutput::Reach { visited: 3, levels: vec![] });
        assert!(matches!(answers[1].output, QueryOutput::Summary { vertices: 16, .. }));
        assert_eq!(answers[2].output, QueryOutput::Reach { visited: 16, levels: vec![] });
        assert_eq!(answers[3].output, QueryOutput::Count(1));
        // Every answer keeps its submission index.
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.index, i);
        }
    }

    #[test]
    fn stats_answers_for_the_epoch_not_the_base() {
        // Five out-edges of vertex 0 inserted into a 20-vertex ring: one
        // group publishes them as a live overlay, the other folds them
        // into the base. STATS reads the graph of the epoch either way.
        let ring: EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
        let mut folding = GroupConfig::default();
        folding.service.mutation.fold_threshold = 0;
        for (config, folds) in [(GroupConfig::default(), 0), (folding, 1)] {
            let engine = DistributedEngine::new(&ring, EngineConfig::new(2));
            let g = ServiceGroup::start(Arc::new(engine), config);
            let mut batch = cgraph_core::UpdateBatch::new();
            for t in 2..7 {
                batch.insert(0, t);
            }
            g.apply_updates(batch).unwrap();
            g.commit_epoch().unwrap();
            assert_eq!(g.stats().epoch_folds, folds);
            let s = Session::new(&g);
            let answers = s.execute_batch(parse_program("STATS\nKHOP 0 1").unwrap());
            assert_eq!(answers[0].output.to_string(), "20 vertices, 25 edges, max out-degree 6");
            assert_eq!(answers[1].output.to_string(), "7 vertices reachable");
        }
    }

    #[test]
    fn large_wave_spans_batches() {
        let e = ring_group(200);
        let s = Session::new(&e);
        let queries: Vec<Query> =
            (0..100).map(|i| parse(&format!("KHOP {i} 2")).unwrap()).collect();
        let answers = s.execute_batch(queries);
        assert!(answers
            .iter()
            .all(|a| a.output == QueryOutput::Reach { visited: 3, levels: vec![] }));
    }

    #[test]
    fn sssp_and_kcore_statements() {
        let e = ring_group(8);
        let s = Session::new(&e);
        let a = s.execute(parse("SSSP 0").unwrap());
        assert_eq!(a.output, QueryOutput::Distances { reachable: 7, max_distance: 7.0 });
        // A directed ring is an undirected cycle: every vertex has
        // undirected degree 2, so coreness is exactly 2.
        let a = s.execute(parse("KCORE 2").unwrap());
        assert_eq!(a.output, QueryOutput::Count(8));
        let a = s.execute(parse("KCORE 3").unwrap());
        assert_eq!(a.output, QueryOutput::Count(0));
    }

    #[test]
    fn pagerank_statement_ranks_hub() {
        let mut g: EdgeList = (1..=5u64).map(|v| (v, 0u64)).collect();
        g.push_pair(0, 1);
        let e = group(&g, 2);
        let s = Session::new(&e);
        // Enough iterations to get past the star's rank oscillation.
        let a = s.execute(parse("PAGERANK 50").unwrap());
        match a.output {
            QueryOutput::Ranking(top) => assert_eq!(top[0].0, 0, "hub must rank first"),
            other => panic!("unexpected output {other:?}"),
        }
    }
}
