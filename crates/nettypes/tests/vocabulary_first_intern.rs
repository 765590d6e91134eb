//! Interning a vocabulary string before anything has read the
//! vocabulary still yields the static vocabulary atom: the intern table
//! is seeded with it, so what was interned first does not matter.
//!
//! The intern table is process-global, so this binary holds one test
//! and controls the order itself.

use panoptes_http::headers::vocab;
use panoptes_http::Atom;

#[test]
fn interning_a_vocabulary_string_first_yields_the_static_atom() {
    let first = Atom::intern("content-type");
    assert!(first.is_static());
    let vocabulary = vocab();
    assert!(Atom::ptr_eq(&first, &vocabulary.content_type));
    assert!(Atom::ptr_eq(&Atom::from("content-type"), &vocabulary.content_type));
}
