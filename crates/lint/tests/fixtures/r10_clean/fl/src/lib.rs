// Fixture: another library crate calling core.

fn run() -> u32 {
    let shape: fedsz::Shape = fedsz::used_by_fl();
    shape.area()
}
