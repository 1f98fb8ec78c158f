// Fixture: a justified suppression on a type other crates only see through
// a signature.

// fedsz-lint: allow(dead-pub) -- named in the signature of `parse`, which fl calls
pub enum ParseError {
    Bad,
}

pub fn parse() -> Result<(), ParseError> {
    Ok(())
}
