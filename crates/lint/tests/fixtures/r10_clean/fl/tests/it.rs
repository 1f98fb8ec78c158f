// Fixture: an integration test of another crate.

#[test]
fn calls_core() {
    fedsz::used_only_by_tests();
}
