// Fixture: every public item is named by another crate.

pub struct Shape;

impl Shape {
    pub fn area(&self) -> u32 {
        0
    }
}

pub fn used_by_fl() -> Shape {
    Shape
}

pub fn used_only_by_tests() {}

pub fn used_only_by_benchmark() {}

pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
