// Fixture: a reference file, so R10 runs.

#[test]
fn nothing() {}
