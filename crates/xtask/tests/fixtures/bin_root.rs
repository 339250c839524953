//! Fixture: a binary root without the unsafe ban — violates
//! `crate-root-attrs` exactly once. A binary exports no API, so the
//! missing-docs lint is not required here.
//! (The attribute names are deliberately not spelled out in this
//! comment: rule R4 is a substring check over the raw source.)

fn main() {
    println!("no attributes");
}
