//! Semantics of concurrency: a wave of queries must return exactly
//! what the same queries return in isolation, regardless of batch
//! packing, lane order, machine count, or which execution path serves
//! them — the correctness contract underneath every performance claim
//! in the paper.

use cgraph::prelude::*;
use cgraph::ql::{parse_program, Session};
use std::sync::Arc;

fn social_graph(seed: u64) -> EdgeList {
    let raw = cgraph::gen::graph500(10, 8, seed);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    b.build().edges
}

#[test]
fn wave_results_independent_of_submission_order() {
    let edges = social_graph(61);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let scheduler = QueryScheduler::new(&engine, SchedulerConfig::default());

    let forward: Vec<KhopQuery> =
        (0..90).map(|i| KhopQuery::single(i, (i as u64 * 17) % 1024, 3)).collect();
    let mut backward = forward.clone();
    backward.reverse();

    let rf = scheduler.execute(&forward);
    let mut rb = scheduler.execute(&backward);
    rb.sort_by_key(|r| r.id);
    for (a, b) in rf.iter().zip(&rb) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.visited, b.visited, "query {}", a.id);
        assert_eq!(a.per_level, b.per_level, "query {}", a.id);
    }
}

#[test]
fn mixed_k_wave_matches_isolated_runs() {
    let edges = social_graph(62);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
    let scheduler = QueryScheduler::new(&engine, SchedulerConfig::default());
    // Mixed hop budgets in one wave, including full BFS lanes.
    let queries: Vec<KhopQuery> = (0..48)
        .map(|i| {
            let k = match i % 4 {
                0 => 1,
                1 => 2,
                2 => 3,
                _ => u32::MAX,
            };
            KhopQuery::single(i, (i as u64 * 31) % 1024, k)
        })
        .collect();
    let wave = scheduler.execute(&queries);
    for q in queries.iter().step_by(7) {
        let solo = scheduler.execute(std::slice::from_ref(q));
        let in_wave = wave.iter().find(|r| r.id == q.id).unwrap();
        assert_eq!(in_wave.visited, solo[0].visited, "query {}", q.id);
    }
}

/// A session on a fresh group serving `edges` over `machines` machines.
fn ql_group(edges: &EdgeList, machines: usize) -> ServiceGroup {
    let engine = DistributedEngine::new(edges, EngineConfig::new(machines));
    ServiceGroup::start(Arc::new(engine), GroupConfig::default())
}

#[test]
fn ql_wave_matches_library_calls() {
    let edges = social_graph(63);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let group = ql_group(&edges, 3);
    let session = Session::new(&group);
    let program = "
        KHOP 5 2
        KHOP 10 3
        BFS 7
        COMPONENTS
    ";
    let answers = session.execute_batch(parse_program(program).unwrap());
    assert_eq!(
        answers[0].output.to_string(),
        format!("{} vertices reachable", khop_count(&engine, 5, 2))
    );
    assert_eq!(
        answers[1].output.to_string(),
        format!("{} vertices reachable", khop_count(&engine, 10, 3))
    );
    assert_eq!(
        answers[2].output.to_string(),
        format!("{} vertices reachable", bfs_count(&engine, 7))
    );
    let labels = weakly_connected_components(&engine);
    let mut uniq = labels;
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(answers[3].output.to_string(), uniq.len().to_string());
}

#[test]
fn ql_wave_answers_do_not_depend_on_how_it_is_split() {
    // The service forms a wave's traversals into batches as it sees
    // fit; a wave of 100 answers exactly as its two halves do.
    let edges = social_graph(66);
    let group = ql_group(&edges, 3);
    let session = Session::new(&group);
    let statements: Vec<cgraph::ql::Query> = (0..100u64)
        .map(|i| cgraph::ql::Query::Khop {
            source: (i * 37) % 1024,
            k: 1 + (i % 3) as u32,
            list_levels: 3,
        })
        .collect();
    let wave = session.execute_batch(statements.clone());
    let halves: Vec<_> =
        statements.chunks(50).flat_map(|c| session.execute_batch(c.to_vec())).collect();
    assert_eq!(wave.len(), 100);
    for (w, h) in wave.iter().zip(&halves) {
        assert_eq!((&w.query, &w.output), (&h.query, &h.output));
    }
}

#[test]
fn ql_listed_levels_do_not_depend_on_the_wave() {
    // A lane lists its own levels: a deeper statement in the same wave
    // runs the batch's level rows deeper, and must not pad this lane's
    // list with the trailing zero levels it never reached.
    let ring: EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
    let group = ql_group(&ring, 2);
    let session = Session::new(&group);
    let alone = session.execute_batch(parse_program("KHOP 0 1 LIST 5").unwrap());
    let wave = session.execute_batch(parse_program("KHOP 0 1 LIST 5\nKHOP 5 4").unwrap());
    let expect = cgraph::ql::QueryOutput::Reach { visited: 2, levels: vec![1, 1] };
    assert_eq!(alone[0].output, expect);
    assert_eq!(wave[0].output, expect);
    assert_eq!(wave[1].output.to_string(), "5 vertices reachable");
}

/// `g` after `updates`, the last update of a pair deciding it.
fn effective_edges(g: &EdgeList, updates: &[EdgeUpdate]) -> EdgeList {
    let mut last = std::collections::BTreeMap::new();
    for u in updates {
        last.insert((u.src(), u.dst()), *u);
    }
    let mut out = EdgeList::with_num_vertices(g.num_vertices());
    for e in g.edges().iter().filter(|e| !last.contains_key(&(e.src, e.dst))) {
        out.push(*e);
    }
    for u in last.values() {
        if let EdgeUpdate::Insert { src, dst, weight } = *u {
            out.push(Edge::weighted(src, dst, weight));
        }
    }
    out
}

#[test]
fn ql_session_sees_a_commit() {
    let edges = social_graph(67);
    let n = edges.num_vertices();
    let group = ql_group(&edges, 3);
    let session = Session::new(&group);
    let program = parse_program("KHOP 5 3 LIST 4\nPAGERANK 5\nSTATS").unwrap();
    let before = session.execute_batch(program.clone());

    // Every fifth edge deleted beside 60 inserted pairs, committed as a
    // live overlay.
    let deletes = edges.edges().iter().step_by(5).map(|e| EdgeUpdate::delete(e.src, e.dst));
    let inserts = (1..=60u64).map(|i| EdgeUpdate::insert(i * 7 % n, i * 13 % n));
    let updates: Vec<EdgeUpdate> = deletes.chain(inserts).collect();
    group.apply_updates(updates.iter().copied().collect()).unwrap();
    group.commit_epoch().unwrap();
    let after = session.execute_batch(program);

    // Oracles: library calls on a scratch engine of the effective edges.
    let effective = effective_edges(&edges, &updates);
    let scratch = DistributedEngine::new(&effective, EngineConfig::new(3));
    let r = QueryScheduler::new(&scratch, SchedulerConfig::default())
        .execute(&[KhopQuery::single(0, 5, 3)])
        .remove(0);
    let mut levels = r.per_level;
    while levels.last() == Some(&0) {
        levels.pop();
    }
    levels.truncate(4);
    let khop = cgraph::ql::QueryOutput::Reach { visited: r.visited, levels };
    let mut ranks: Vec<(u64, f64)> =
        pagerank(&scratch, 5).into_iter().enumerate().map(|(v, r)| (v as u64, r)).collect();
    ranks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    ranks.truncate(10);
    let mut degree = vec![0u64; n as usize];
    effective.edges().iter().for_each(|e| degree[e.src as usize] += 1);
    let stats = format!(
        "{n} vertices, {} edges, max out-degree {}",
        effective.len(),
        degree.iter().max().unwrap()
    );

    assert_eq!(after[0].output, khop);
    assert_eq!(after[1].output, cgraph::ql::QueryOutput::Ranking(ranks));
    assert_eq!(after[2].output.to_string(), stats);
    assert_ne!(before[2].output, after[2].output, "the commit changes the edge count");
}

#[test]
fn ql_session_after_shutdown_answers_an_error() {
    let ring: EdgeList = (0..20u64).map(|v| (v, (v + 1) % 20)).collect();
    let group = ql_group(&ring, 2);
    let session = Session::new(&group);
    group.shutdown();
    let answer = session.execute(cgraph::ql::parse("KHOP 0 3").unwrap());
    assert_eq!(answer.output, cgraph::ql::QueryOutput::Error("query service is shut down".into()));
}

#[test]
fn repeated_waves_are_deterministic_in_results() {
    let edges = social_graph(64);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(4));
    let scheduler = QueryScheduler::new(&engine, SchedulerConfig::default());
    let queries: Vec<KhopQuery> =
        (0..70).map(|i| KhopQuery::single(i, (i as u64 * 11) % 1024, 3)).collect();
    let a = scheduler.execute(&queries);
    let b = scheduler.execute(&queries);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.visited, y.visited);
        assert_eq!(x.per_level, y.per_level);
    }
}

#[test]
fn engine_paths_agree_under_concurrent_reuse() {
    // One engine serving traversal batches, GAS and PCM programs in
    // sequence must keep returning consistent answers (no state leaks
    // between runs — each run builds fresh per-machine state).
    let edges = social_graph(65);
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let before = khop_count(&engine, 3, 3);
    let _ranks = pagerank(&engine, 5);
    let _labels = weakly_connected_components(&engine);
    let _core = kcore_decomposition(&engine);
    let after = khop_count(&engine, 3, 3);
    assert_eq!(before, after, "engine state must not leak across runs");
}
