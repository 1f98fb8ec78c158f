// Fixture: fl calls `parse` without naming its error type.

fn run() -> bool {
    fedsz::parse().is_ok()
}
