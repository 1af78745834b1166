//! Fixture: one of every protocol-path panic hazard. Scanned with a
//! protocol role; the golden pins the expected (line, rule) pairs. P
//! covers every non-test function of the file, handler or not.

fn on_message(input: Option<u32>) -> u32 {
    input.unwrap()
}

fn on_deliver(input: Option<u32>) -> u32 {
    input.expect("always present")
}

fn on_timeout(state: u32) {
    if state > 3 {
        panic!("bad state");
    }
    match state {
        0 => {}
        _ => unreachable!(),
    }
}

fn decode_frame(buf: &[u8]) -> u32 {
    let len = buf[0];
    u32::from(buf[len as usize])
}

fn parse_header(buf: &[u8]) -> u16 {
    u16::from_le_bytes([buf[0], buf[1]])
}

fn checksum(buf: &[u8]) -> u8 {
    // Negative case: indexing outside a decode-named fn is not P004
    // (the fn name carries no decode marker).
    buf[0] ^ 0x5a
}

fn graceful_decode(buf: &[u8]) -> Option<u8> {
    // Negative case: `get` never panics, even inside a decode fn.
    buf.get(0).copied()
}

fn orphan_helper(state: u32) -> u32 {
    // No handler calls this; a panic here is flagged all the same.
    if state == 0 {
        panic!("no state");
    }
    state
}
