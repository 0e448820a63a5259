//! What parsing costs in memory, counted with the thread-enrolled
//! allocator of `aas-sim`'s allocation tests, in the profile the
//! benchmark builds with.
//!
//! The lexer borrows every identifier and string literal from the source
//! and the parser holds one token of lookahead, so the heap's peak while
//! parsing is what the returned `SystemDecl` holds: its names, texts,
//! props and vectors.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use aas_adl::parse_system;
use counting_alloc::{enroll, measured_heap, unenroll, GATE};
use std::fmt::Write as _;

/// A system of 700 nodes in a ring, 700 links and 700 components with
/// props, plus connectors, bindings, constraints and rules: about 2,100
/// declarations, every production of the grammar.
fn generated_system() -> String {
    const N: usize = 700;
    let mut src = String::from("// generated\nsystem Footprint {\n");
    for i in 0..N {
        let _ = writeln!(
            src,
            "  node n{i} {{ capacity = {}.5; memory = 4096; }}",
            100 + i
        );
    }
    for i in 0..N {
        let _ = writeln!(
            src,
            "  link n{i} -- n{} {{ latency_ms = 2.0; bandwidth = 1e6; }}",
            (i + 1) % N
        );
    }
    for i in 0..N {
        let on = if i % 7 == 0 {
            "auto".to_owned()
        } else {
            format!("n{i}")
        };
        let _ = writeln!(
            src,
            "  component c{i} : Coder v{} on {on} {{ fps = 30; hd = true; label = \"cam {i}\"; expected_load = 1.5; memory_demand = 64; }}",
            1 + i % 3
        );
    }
    for i in 0..20 {
        let _ = writeln!(
            src,
            "  connector w{i} {{ policy round_robin; aspect metering; aspect compression(0.5, 0.2); cost 0.05; }}"
        );
        let _ = writeln!(
            src,
            "  bind c{i}.out -> w{i} -> c{}.in, c{}.in;",
            i + 1,
            i + 2
        );
        let _ = writeln!(src, "  constraint max_mean_latency(c{i}, 100.0);");
        let _ = writeln!(
            src,
            "  rule r{i}: utilization(n{i}) > 0.8 implies_later migrate(c{i}, n{});",
            i + 1
        );
    }
    src.push_str("  rule quiet: latency(c0) < 5.0 wait_until notify(\"all quiet\");\n}\n");
    src
}

#[test]
fn parsing_peaks_at_what_the_system_holds() {
    let src = generated_system();
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();
    let (sys, heap) = measured_heap(|| parse_system(&src));
    unenroll();
    let sys = sys.expect("the generated system parses");
    assert_eq!(
        (sys.nodes.len(), sys.links.len(), sys.components.len()),
        (700, 700, 700)
    );
    assert_eq!((sys.bindings.len(), sys.rules.len()), (20, 21));
    assert!(heap.grown > 0, "{heap:?}");
    // A realloc frees its old block before it asks for the new one, so
    // the system's own vectors growing leave nothing above what it holds.
    let transient = heap.peak - heap.grown;
    assert!(
        transient <= 1_024,
        "parsing {} B of source peaked {transient} B above what the system holds: {heap:?}",
        src.len()
    );
}
