//! Fixture: real hazards, each silenced by a well-formed justified
//! directive. Must scan clean — and deleting any single directive must
//! make the scan fail (pinned by the suppression-deletion test).

// detlint::allow-file(D001): this fixture stands in for a wall-clock deployment module

use std::time::Instant;

fn clock() -> u128 {
    Instant::now().elapsed().as_micros()
}

fn mode() -> Option<String> {
    // detlint::allow(D003): diagnostic gate only; never feeds protocol state
    std::env::var("FIXTURE_TRACE").ok()
}

fn on_deliver(input: Option<u32>) -> u32 {
    // detlint::allow(P002): constructor-time invariant, documented panic contract
    input.expect("caller checked")
}

fn branch(state: u32) {
    match state {
        0 => {}
        // detlint::allow(P003): dispatcher matches this variant before calling; a silent drop would lose a command
        _ => unreachable!("caller dispatches on state"),
    }
}

fn driver() {
    // detlint::allow(D006): this fixture stands in for a host driver that owns a real thread
    std::thread::spawn(|| ());
}
