// Fixture: a reference file that names none of core's items.

#[test]
fn nothing() {}
