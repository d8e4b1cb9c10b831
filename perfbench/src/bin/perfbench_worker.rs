//! Shard worker for the benchmark's pools: serves the shard wire
//! protocol over stdin/stdout, exactly as the repository's
//! `shard_worker` binary does.

use std::io::{BufReader, BufWriter};

fn main() {
    let stdin = BufReader::new(std::io::stdin().lock());
    let stdout = BufWriter::new(std::io::stdout().lock());
    if let Err(e) = osc_core::batch::shard::serve(stdin, stdout) {
        eprintln!("perfbench_worker: transport error: {e}");
        std::process::exit(1);
    }
}
