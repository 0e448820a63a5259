//! Property-based tests for the ADL: render→parse roundtrips.

use aas_adl::parser::parse_system;
use aas_adl::validate::validate;
use proptest::prelude::*;

/// Renders a small random system to ADL source.
fn render(
    nodes: &[(String, f64)],
    comps: &[(String, String, u32, usize)],
    binds: &[(usize, usize)],
) -> String {
    let mut src = String::from("system Gen {\n");
    for (name, cap) in nodes {
        src.push_str(&format!("  node {name} {{ capacity = {cap:.1}; }}\n"));
    }
    for (name, ty, ver, node_idx) in comps {
        let node = &nodes[node_idx % nodes.len()].0;
        src.push_str(&format!("  component {name} : {ty} v{ver} on {node}\n"));
    }
    if !comps.is_empty() {
        src.push_str("  connector w { policy direct; }\n");
        for (i, (from, to)) in binds.iter().enumerate() {
            let from = &comps[from % comps.len()].0;
            let to = &comps[to % comps.len()].0;
            src.push_str(&format!("  bind {from}.out{i} -> w -> {to}.in;\n"));
        }
    }
    src.push('}');
    src
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}"
}

proptest! {
    /// Rendered systems always parse back with matching structure.
    #[test]
    fn render_parse_roundtrip(
        node_names in prop::collection::btree_set(ident(), 1..5),
        caps in prop::collection::vec(1.0f64..1000.0, 5),
        comp_names in prop::collection::btree_set(ident(), 0..6),
        placements in prop::collection::vec(0usize..8, 8),
        binds in prop::collection::vec((0usize..8, 0usize..8), 0..4),
    ) {
        let nodes: Vec<(String, f64)> = node_names
            .iter()
            .cloned()
            .zip(caps.iter().cloned().cycle())
            .collect();
        // Component names must not collide with node names.
        let comps: Vec<(String, String, u32, usize)> = comp_names
            .iter()
            .filter(|c| !node_names.contains(*c))
            .enumerate()
            .map(|(i, name)| (format!("c_{name}"), "Type".to_owned(), (i % 5 + 1) as u32, placements[i % placements.len()]))
            .collect();
        let binds: Vec<(usize, usize)> = if comps.is_empty() { Vec::new() } else { binds };
        let src = render(&nodes, &comps, &binds);
        let sys = parse_system(&src).expect("generated source must parse");
        prop_assert_eq!(sys.nodes.len(), nodes.len());
        prop_assert_eq!(sys.components.len(), comps.len());
        prop_assert_eq!(sys.bindings.len(), binds.len());
        // Unique names + resolvable refs: validation may only complain
        // about unused connectors (we declare one even with no binds).
        for issue in validate(&sys) {
            let text = issue.to_string();
            prop_assert!(
                text.contains("never used"),
                "unexpected issue: {text}\nsource:\n{src}"
            );
        }
    }
}
