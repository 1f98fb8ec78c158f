// Fixture: a comment naming never_named, and a string naming Lonely, are
// not uses.

fn describe() -> &'static str {
    "Lonely"
}
