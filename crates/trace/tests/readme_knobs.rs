//! README's "Environment variables" table is generated from the one knob
//! table: regenerate it with `abr_trace::knob::markdown_table()` whenever
//! a knob changes.

#[test]
fn readme_carries_the_generated_knob_table() {
    let readme = include_str!("../../../README.md");
    let table = abr_trace::knob::markdown_table();
    assert!(
        readme.contains(&table),
        "README.md's knob table is stale; replace it with:\n{table}"
    );
}
