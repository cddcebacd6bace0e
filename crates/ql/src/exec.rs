//! Planner + executor: maps statements onto engine paths.
//!
//! Traversal statements (KHOP/BFS) submitted in the same wave share
//! bit-frontier batches of up to [`MAX_LANES`] lanes — the paper's
//! concurrent query path, at the engine's own width limit — while
//! analytic statements (PAGERANK, COMPONENTS, …) run on the GAS /
//! partition-centric engines. Response times are measured from wave
//! submission, so a client sees exactly what a multi-user deployment
//! would.

use crate::ast::{Answer, Query, QueryOutput};
use cgraph_core::engine::DistributedEngine;
use cgraph_graph::MAX_LANES;
use std::time::Instant;

/// A query session bound to one engine instance.
pub struct Session<'e> {
    engine: &'e DistributedEngine,
}

impl<'e> Session<'e> {
    /// Opens a session over `engine`.
    pub fn new(engine: &'e DistributedEngine) -> Self {
        Self { engine }
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
    /// Traversals are packed into shared batches (in submission
    /// order); other statements run afterwards, in order. Statements
    /// naming vertices outside the graph are answered with
    /// [`QueryOutput::Error`] instead of being executed.
    pub fn execute_batch(&self, queries: Vec<Query>) -> Vec<Answer> {
        let submit = Instant::now();
        let mut answers: Vec<Option<Answer>> = (0..queries.len()).map(|_| None).collect();

        // Validate vertex operands up front.
        let n = self.engine.num_vertices();
        for (i, q) in queries.iter().enumerate() {
            if let Some(&bad) = Self::vertex_operands(q).iter().find(|&&v| v >= n) {
                answers[i] = Some(Answer {
                    index: i,
                    query: q.clone(),
                    output: QueryOutput::Error(format!(
                        "vertex {bad} does not exist (graph has {n} vertices)"
                    )),
                    response_time: submit.elapsed(),
                });
            }
        }

        // Plan: batch KHOP/BFS as shared bit-frontier lanes. REACHABLE
        // needs a per-vertex depth, which the counting batch does not
        // produce, so it runs in the analytic phase (hop-exact).
        let mut traversal_idx: Vec<usize> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if matches!(q, Query::Khop { .. } | Query::Bfs { .. }) && answers[i].is_none() {
                traversal_idx.push(i);
            }
        }

        // Shared batched execution of traversals.
        for chunk in traversal_idx.chunks(MAX_LANES) {
            let sources: Vec<u64> = chunk
                .iter()
                .map(|&i| match &queries[i] {
                    Query::Khop { source, .. } | Query::Bfs { source } => *source,
                    _ => unreachable!("planner filtered traversals"),
                })
                .collect();
            let ks: Vec<u32> = chunk
                .iter()
                .map(|&i| match &queries[i] {
                    Query::Khop { k, .. } => *k,
                    Query::Bfs { .. } => u32::MAX,
                    _ => unreachable!(),
                })
                .collect();
            let br = self.engine.run_traversal_batch(&sources, &ks).unwrap();
            let elapsed = submit.elapsed();
            for (lane, &i) in chunk.iter().enumerate() {
                let visited = br.per_lane_visited[lane];
                let output = match &queries[i] {
                    Query::Khop { list_levels, .. } => {
                        // The batch's rows run as deep as its deepest
                        // lane: trim this lane's own trailing zero
                        // levels, so what it lists does not depend on
                        // what else is in the wave.
                        let mut levels: Vec<u64> =
                            br.per_level.iter().map(|row| row[lane]).collect();
                        while levels.last() == Some(&0) {
                            levels.pop();
                        }
                        levels.truncate(*list_levels);
                        QueryOutput::Reach { visited, levels }
                    }
                    Query::Bfs { .. } => QueryOutput::Reach { visited, levels: vec![] },
                    _ => unreachable!(),
                };
                answers[i] = Some(Answer {
                    index: i,
                    query: queries[i].clone(),
                    output,
                    response_time: elapsed,
                });
            }
        }

        // Analytics, serially after the wave of traversals.
        for (i, q) in queries.iter().enumerate() {
            if answers[i].is_some() {
                continue;
            }
            let output = self.run_analytic(q);
            answers[i] = Some(Answer {
                index: i,
                query: q.clone(),
                output,
                response_time: submit.elapsed(),
            });
        }
        answers.into_iter().map(|a| a.expect("every query answered")).collect()
    }

    fn reachable(&self, source: u64, target: u64, k: u32) -> bool {
        if source == target {
            return true;
        }
        // Hop-exact membership, independent of edge weights: BFS
        // depths via the vertex-centric program, then compare to k.
        let depths = self.engine.run_vertex_program(&cgraph_analytics::VcBfs { source });
        depths[target as usize] <= k as u64
    }

    fn run_analytic(&self, q: &Query) -> QueryOutput {
        match q {
            Query::Reachable { source, target, k } => {
                QueryOutput::Bool(self.reachable(*source, *target, *k))
            }
            Query::Sssp { source, bound } => {
                let dist = match bound {
                    Some(b) => cgraph_analytics::sssp_within(self.engine, *source, *b),
                    None => cgraph_analytics::sssp(self.engine, *source),
                };
                let finite: Vec<f32> = dist.into_iter().filter(|d| d.is_finite()).collect();
                QueryOutput::Distances {
                    reachable: finite.len() as u64 - 1, // exclude the source
                    max_distance: finite.iter().copied().fold(0.0, f32::max),
                }
            }
            Query::PageRank { iterations } => {
                let ranks = cgraph_analytics::pagerank(self.engine, *iterations);
                let mut indexed: Vec<(u64, f64)> =
                    ranks.into_iter().enumerate().map(|(v, r)| (v as u64, r)).collect();
                indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                indexed.truncate(10);
                QueryOutput::Ranking(indexed)
            }
            Query::Components => {
                let labels = cgraph_analytics::weakly_connected_components(self.engine);
                let mut uniq = labels;
                uniq.sort_unstable();
                uniq.dedup();
                QueryOutput::Count(uniq.len() as u64)
            }
            Query::KCore { k } => {
                let core = cgraph_analytics::kcore_decomposition(self.engine);
                QueryOutput::Count(core.iter().filter(|&&c| c >= *k).count() as u64)
            }
            Query::Stats => {
                let max_degree = (0..self.engine.num_vertices())
                    .map(|v| self.engine.out_degree(v) as u64)
                    .max()
                    .unwrap_or(0);
                QueryOutput::Summary {
                    vertices: self.engine.num_vertices(),
                    edges: self.engine.shards().iter().map(|s| s.num_out_edges() as u64).sum(),
                    max_degree,
                }
            }
            _ => unreachable!("traversals handled in the batch phase"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_program};
    use cgraph_core::config::EngineConfig;
    use cgraph_graph::EdgeList;

    fn ring_engine(n: u64) -> DistributedEngine {
        let g: EdgeList = (0..n).map(|v| (v, (v + 1) % n)).collect();
        DistributedEngine::new(&g, EngineConfig::new(2))
    }

    #[test]
    fn khop_statement() {
        let e = ring_engine(20);
        let s = Session::new(&e);
        let a = s.execute(parse("KHOP 0 3").unwrap());
        assert_eq!(a.output, QueryOutput::Reach { visited: 4, levels: vec![] });
    }

    #[test]
    fn khop_with_levels() {
        let e = ring_engine(20);
        let s = Session::new(&e);
        let a = s.execute(parse("KHOP 0 3 LIST 3").unwrap());
        assert_eq!(a.output, QueryOutput::Reach { visited: 4, levels: vec![1, 1, 1] });
    }

    #[test]
    fn reachable_statement() {
        let e = ring_engine(10);
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
        let e = DistributedEngine::new(&g, EngineConfig::new(1));
        let s = Session::new(&e);
        assert_eq!(
            s.execute(parse("REACHABLE 0 1 1").unwrap()).output,
            QueryOutput::Bool(true),
            "k counts hops, not edge weight"
        );
    }

    #[test]
    fn out_of_range_vertex_rejected_cleanly() {
        let e = ring_engine(8);
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
        let e = ring_engine(16);
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
    fn large_wave_spans_batches() {
        let e = ring_engine(200);
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
        let e = ring_engine(8);
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
        let e = DistributedEngine::new(&g, EngineConfig::new(2));
        let s = Session::new(&e);
        // Enough iterations to get past the star's rank oscillation.
        let a = s.execute(parse("PAGERANK 50").unwrap());
        match a.output {
            QueryOutput::Ranking(top) => assert_eq!(top[0].0, 0, "hub must rank first"),
            other => panic!("unexpected output {other:?}"),
        }
    }
}
