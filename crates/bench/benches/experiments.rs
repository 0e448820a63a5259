//! The one bench target: `cargo bench -p aas-bench -- [ids…] [smoke|full]`
//! prints each experiment's table and writes its `BENCH_<id>.json`; with
//! `check` it holds each table to the artifact already there instead.

fn main() -> std::process::ExitCode {
    aas_bench::main(std::env::args().skip(1))
}
