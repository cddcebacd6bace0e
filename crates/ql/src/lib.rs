//! # cgraph-ql — a small query language over the C-Graph engine
//!
//! The paper frames C-Graph as the layer "between low-level database
//! and high-level algorithms" serving *multi-user* workloads: "several
//! users can send out query requests simultaneously" (§1–2). This
//! crate is that user-facing surface: a line-oriented query language,
//! a parser, and a session that is one more client of a
//! [`cgraph_core::ServiceGroup`] — reachability queries go through the
//! group's serving path, analytics (GAS, partition-centric programs)
//! run on the engine value it is serving.
//!
//! ## Language
//!
//! ```text
//! KHOP <source> <k>            -- vertices within k hops
//! KHOP <source> <k> LIST <n>   -- ... and the first n per-level counts
//! BFS <source>                 -- full reachability
//! REACHABLE <src> <dst> <k>    -- can dst be reached within k hops?
//! SSSP <source> [<bound>]      -- shortest-path distances (optionally bounded)
//! PAGERANK <iters>             -- top-10 vertices by rank
//! COMPONENTS                   -- weakly connected component count
//! KCORE <k>                    -- number of vertices with coreness >= k
//! STATS                        -- graph summary
//! ```
//!
//! Multiple statements submitted together ([`Session::execute_batch`])
//! are treated as one concurrent wave: its reachability queries are
//! submitted to the group together, which packs them into shared
//! bit-frontier batches beside other clients' queries, exactly like the
//! paper's concurrent query workload.

#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod parser;

pub use ast::{Query, QueryOutput};
pub use exec::Session;
pub use parser::{parse, parse_program, ParseError};
