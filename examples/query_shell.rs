//! Interactive query shell over a C-Graph service group — the
//! multi-user database surface of the paper's §2, as a REPL. The shell
//! is one client of the group: its KHOP/BFS statements are tickets on
//! the serving path, its analytics read the engine value now serving.
//!
//! Run with: `cargo run --release --example query_shell`
//! Then type statements such as:
//!
//! ```text
//! STATS
//! KHOP 5 3
//! KHOP 5 3 LIST 4
//! REACHABLE 5 900 2
//! SSSP 5 4
//! PAGERANK 10
//! COMPONENTS
//! KCORE 8
//! ```
//!
//! Pipe a file of statements to execute them as one concurrent wave
//! (its traversals submitted together, so the group batches them):
//! `cat queries.txt | cargo run --release --example query_shell`

use cgraph::prelude::*;
use cgraph_ql::{parse_program, Session};
use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;

fn main() {
    let raw = cgraph::gen::graph500(12, 16, 3);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    let edges = b.build().edges;
    let engine = DistributedEngine::new(&edges, EngineConfig::new(3));
    let group = ServiceGroup::start(Arc::new(engine), GroupConfig::default());
    let session = Session::new(&group);
    eprintln!(
        "cgraph shell: {} vertices, {} edges on 3 machines — type HELP or a statement",
        edges.num_vertices(),
        edges.len()
    );

    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        // One statement at a time, prompt-driven.
        loop {
            eprint!("cgraph> ");
            std::io::stderr().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let trimmed = line.trim();
            if trimmed.eq_ignore_ascii_case("quit") || trimmed.eq_ignore_ascii_case("exit") {
                break;
            }
            if trimmed.eq_ignore_ascii_case("help") {
                eprintln!(
                    "statements: KHOP s k [LIST n] | BFS s | REACHABLE s t k | \
                     SSSP s [bound] | PAGERANK n | COMPONENTS | KCORE k | STATS"
                );
                continue;
            }
            match cgraph_ql::parse(trimmed) {
                Ok(q) => {
                    let a = session.execute(q);
                    println!("{}  ({:?})", a.output, a.response_time);
                }
                Err(e) => eprintln!("error: {e}"),
            }
        }
    } else {
        // Batch mode: the whole input is one concurrent wave.
        let mut program = String::new();
        for line in stdin.lock().lines() {
            program.push_str(&line.expect("stdin"));
            program.push('\n');
        }
        match parse_program(&program) {
            Ok(queries) => {
                let n = queries.len();
                let answers = session.execute_batch(queries);
                for a in &answers {
                    println!("[{}] {}  ({:?})", a.index, a.output, a.response_time);
                }
                eprintln!("{n} statements answered as one concurrent wave");
            }
            Err(e) => {
                eprintln!("parse error: {e}");
                group.shutdown();
                std::process::exit(1);
            }
        }
    }
    group.shutdown();
}
