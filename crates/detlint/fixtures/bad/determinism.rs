//! Fixture: one of every determinism hazard. Scanned with a sim role;
//! the golden next to this file pins the expected (line, rule) pairs.

use std::time::Instant;
use std::time::SystemTime;
use std::collections::HashMap;
use std::collections::HashSet;

fn clock() -> u128 {
    Instant::now().elapsed().as_micros()
}

fn stamp() -> SystemTime {
    SystemTime::now()
}

fn entropy() -> u64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}

fn seeded() -> u64 {
    // Negative case: seed-derived randomness is the sanctioned pattern.
    let mut rng = StdRng::seed_from_u64(42);
    rng.gen()
}

fn mode() -> Option<String> {
    std::env::var("DYNASTAR_MODE").ok()
}

fn nap() {
    std::thread::sleep(Duration::from_millis(1));
}

fn counts() -> HashMap<u32, u64> {
    HashMap::new()
}

fn tags() -> HashSet<u64> {
    HashSet::new()
}

fn pinned() -> HashMap<u32, u64, BuildHasherDefault<FxHasher>> {
    // Negative case: an explicit hasher is deterministic.
    HashMap::with_hasher(BuildHasherDefault::default())
}

// Host IO: sockets, threads, channels, files and processes (D006), and
// the imports that bring them in (D007). A crate's own `net` is not std's.
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use crate::net::NetConfig;

fn host_io(pool: &Pool) {
    let _ = TcpStream::connect("peer:1");
    let _ = std::thread::spawn(|| ());
    let _ = thread::Builder::new();
    let (_tx, _rx) = mpsc::channel::<u8>();
    let (_s, _r) = crossbeam::channel::unbounded();
    let _ = std::fs::read("state");
    pool.spawn(|| ());
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazards_in_test_code_are_fine() {
        // Negative case: rules skip test spans entirely.
        let t = Instant::now();
        let mut m: HashMap<u32, u32> = HashMap::new();
        m.insert(0, 0);
        assert!(t.elapsed().as_nanos() < u128::MAX && m.len() == 1);
    }
}
