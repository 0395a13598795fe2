//! The counting allocator counts a known `Vec`, exactly, on the thread that
//! made it and on no other. (Counters are per thread, so the two tests do
//! not disturb each other.)

use pipeline::alloc::{reset_peak, snapshot};

const N: u64 = 1 << 20;

#[test]
fn counts_a_known_vec() {
    reset_peak();
    let before = snapshot();
    let v: Vec<u8> = Vec::with_capacity(N as usize);
    let held = snapshot();
    assert_eq!(held.allocs - before.allocs, 1);
    assert_eq!(held.bytes - before.bytes, N);
    assert_eq!(held.live - before.live, N as i64);
    assert_eq!(held.peak, held.live);
    drop(std::hint::black_box(v));
    let freed = snapshot();
    assert_eq!(freed.live, before.live);
    assert_eq!(
        freed.peak, held.peak,
        "the high-water mark survives the free"
    );
    assert_eq!(freed.allocs, held.allocs);
}

#[test]
fn a_thread_counts_its_own() {
    let before = snapshot();
    let theirs = std::thread::spawn(|| {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(N as usize);
        let held = snapshot();
        drop(std::hint::black_box(v));
        (held.allocs - before.allocs, held.bytes - before.bytes)
    })
    .join()
    .unwrap();
    assert_eq!(theirs, (1, N));
    assert!(
        snapshot().bytes - before.bytes < N,
        "the spawner saw only the spawn's own allocations"
    );
}
