//! Shard worker: the subprocess half of `osc_core::batch::shard`.
//!
//! ```text
//! shard_worker            # serve the wire protocol over stdin/stdout
//! ```
//!
//! Speaks the one framed binary protocol documented in
//! [`osc_core::batch::shard`]: request IDs and cached-circuit
//! references (the last few built circuits persist across requests in
//! an LRU cache, so a pool's repeat requests skip the rebuild). Reads
//! request frames from stdin until EOF, answering each with one
//! response frame on stdout. Every expressible failure — malformed
//! frames, other protocol versions, sizes past the decode-time bounds,
//! invalid configurations, evaluation errors, caught panics — is
//! reported *as an error response*, so a coordinator never sees this
//! process abort on bad input; a non-zero exit happens only when the
//! transport itself dies (truncated frame, oversized length prefix,
//! vanished pipe).
//!
//! The in-process thread count follows `OSC_THREADS` (the coordinator
//! exports it when pinned via `ShardCoordinator::with_worker_threads`
//! or `PoolConfig::with_worker_threads`).

use std::io::{BufReader, BufWriter};

fn main() {
    if std::env::args().nth(1).is_some() {
        eprintln!("usage: shard_worker   (speaks the osc shard protocol over stdin/stdout)");
        std::process::exit(2);
    }
    let stdin = BufReader::new(std::io::stdin().lock());
    let stdout = BufWriter::new(std::io::stdout().lock());
    if let Err(e) = osc_core::batch::shard::serve(stdin, stdout) {
        eprintln!("shard_worker: transport error: {e}");
        std::process::exit(1);
    }
}
