// Fixture: public items no other crate names.

pub fn never_named() {}
pub struct Lonely;
pub const fn also_dead() -> u8 {
    0
}
pub const LIMIT: u32 = 4;
pub type Alias = u32;
pub enum Mode {
    A,
}
impl Lonely {
    pub fn method(&self) {}
}
pub fn named_only_here() {}

pub(crate) fn internal() {
    named_only_here();
}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
