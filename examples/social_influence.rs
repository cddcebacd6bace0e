//! Social-network influence scenario (§1 of the paper).
//!
//! "In recommendation systems, information about neighbors is analyzed
//! in order to predict the user's interests … the influence of a
//! vertex usually decreases as the number of hops increases.
//! Therefore, for most applications, potential candidates will be
//! found within a small number of hops."
//!
//! This example grows a preferential-attachment friendship graph,
//! issues concurrent 2-hop candidate queries for a set of users, and
//! scores candidates by inverse hop distance.
//!
//! Run with: `cargo run --release --example social_influence`

use cgraph::prelude::*;

fn main() {
    // A 20K-user friendship network with power-law popularity.
    let raw = cgraph::gen::pref_attach(20_000, 6, 99);
    let mut b = GraphBuilder::with_options(BuildOptions {
        symmetrize: true, // friendships are mutual
        ..Default::default()
    });
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let engine = DistributedEngine::new(&edges, EngineConfig::new(2));

    // 64 users ask "who is in my small world?" simultaneously — one
    // bit-frontier batch.
    let users: Vec<u64> = (0..64u64).map(|i| i * 311 % 20_000).collect();
    let queries: Vec<KhopQuery> =
        users.iter().enumerate().map(|(i, &u)| KhopQuery::single(i, u, 2)).collect();
    let results = QueryScheduler::new(&engine, SchedulerConfig::default()).execute(&queries);

    println!("user  | friends (1-hop) | friends-of-friends (2-hop) | influence reach");
    println!("------+-----------------+----------------------------+----------------");
    for (i, r) in results.iter().take(10).enumerate() {
        let one_hop = r.per_level.get(1).copied().unwrap_or(0);
        let two_hop = r.per_level.get(2).copied().unwrap_or(0);
        // Influence score: hop-1 candidates weigh 1.0, hop-2 weigh 0.5
        // ("the influence of a vertex decreases as hops increase").
        let score = one_hop as f64 + 0.5 * two_hop as f64;
        println!("{:>5} | {:>15} | {:>26} | {:>14.1}", users[i], one_hop, two_hop, score);
    }

    // Aggregate: how much of the network is inside the 2-hop small
    // world, on average? (The six-degrees effect at work.)
    let mean_reach: f64 = results.iter().map(|r| r.visited as f64).sum::<f64>()
        / results.len() as f64
        / edges.num_vertices() as f64;
    println!(
        "\naverage 2-hop reach: {:.1}% of the whole network ({} users)",
        mean_reach * 100.0,
        edges.num_vertices()
    );

    // Cross-check with the hop plot: effective diameter of this graph.
    let hp = hop_plot(&engine, 32, 1);
    println!(
        "effective diameter: δ0.5 = {:.2}, δ0.9 = {:.2} (small world ⇒ small k suffices)",
        hp.effective_diameter(0.5),
        hp.effective_diameter(0.9)
    );
}
