//! Stress tests for the communication substrate: barrier generations
//! under contention, async termination with random message storms, and
//! traffic accounting exactness.

use cgraph_comm::{NetModel, PersistentCluster};
use rand::{Rng, SeedableRng};

#[test]
fn random_message_storm_terminates_and_conserves_tokens() {
    // Each machine starts with a bag of tokens; every processed token
    // is either retired or forwarded to a random machine with decaying
    // probability. Quiescence must be reached, and the total number of
    // processed tokens must equal the number of sends + initial seeds.
    for seed in 0..5u64 {
        let p = 4;
        let cluster = PersistentCluster::new(p);
        let (results, _) = cluster
            .submit::<u64, (u64, u64), _>(|h| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed * 31 + h.id() as u64);
                let mut processed = 0u64;
                let mut sent = 0u64;
                // Seed: 50 tokens of ttl 20 each, staged as self-messages.
                for _ in 0..50 {
                    h.send(h.id(), 20);
                }
                sent += 50;
                loop {
                    match h.try_recv() {
                        Some(env) => {
                            h.set_idle(false);
                            let ttl = env.payload;
                            if ttl > 0 && rng.gen_bool(0.7) {
                                h.send(rng.gen_range(0..3.min(h.num_machines())), ttl - 1);
                                sent += 1;
                            }
                            processed += 1;
                            h.message_processed();
                        }
                        None => {
                            h.set_idle(true);
                            if h.quiescent() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                (processed, sent)
            })
            .unwrap();
        let processed: u64 = results.iter().map(|r| r.0).sum();
        let sent: u64 = results.iter().map(|r| r.1).sum();
        assert_eq!(processed, sent, "seed {seed}: every send must be processed");
    }
}

#[test]
fn barrier_reduce_consistent_over_many_generations() {
    let p = 6;
    let rounds = 500u64;
    let cluster = PersistentCluster::new(p);
    let (results, _) = cluster
        .submit::<(), u64, _>(|h| {
            let mut acc = 0u64;
            for r in 0..rounds {
                let contribution = r * (h.id() as u64 + 1);
                let red = h.barrier_reduce(contribution);
                // sum of i*(id+1) over ids = r * p(p+1)/2
                assert_eq!(red.sum, r * (p as u64 * (p as u64 + 1) / 2));
                assert_eq!(red.max, r * p as u64);
                acc = acc.wrapping_add(red.sum);
            }
            acc
        })
        .unwrap();
    assert!(results.windows(2).all(|w| w[0] == w[1]), "all machines saw identical reductions");
}

#[test]
fn traffic_accounting_matches_messages() {
    let cluster = PersistentCluster::with_model(3, NetModel::TEN_GBE);
    let (_, report) = cluster
        .submit::<u64, (), _>(|h| {
            // Every machine sends exactly 10 remote messages of 8 bytes.
            for i in 0..10u64 {
                h.send((h.id() + 1) % 3, i);
            }
            h.barrier();
            h.drain();
        })
        .unwrap();
    assert_eq!(report.total_msgs(), 30);
    assert_eq!(report.total_bytes(), 30 * 8);
    assert!(report.max_sim_net_ns() >= 10 * NetModel::TEN_GBE.latency_ns_per_msg);
}

#[test]
fn large_cluster_smoke() {
    // 16 simulated machines on however few cores: must still complete.
    let cluster = PersistentCluster::new(16);
    let (results, _) = cluster
        .submit::<u64, u64, _>(|h| {
            for m in 0..h.num_machines() {
                if m != h.id() {
                    h.send(m, h.id() as u64);
                }
            }
            h.barrier();
            let got = h.drain();
            assert_eq!(got.len(), 15);
            h.barrier_sum(got.len() as u64)
        })
        .unwrap();
    assert!(results.iter().all(|&r| r == 16 * 15));
}
