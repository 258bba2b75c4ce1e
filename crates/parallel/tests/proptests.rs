//! Property-based tests: every parallel primitive must agree with its
//! obvious sequential reference on arbitrary inputs and thread counts —
//! and whatever a second caller does to the pool meanwhile.

use lgc_parallel::{
    counting_sort_by_key, filter, max_by, merge_sort_by, scan_exclusive, scan_inclusive, Pool,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

fn pools() -> impl Strategy<Value = usize> {
    1usize..=4
}

/// What the second thread does to the pool while it is "in".
#[derive(Clone, Copy, Debug)]
enum Neighbour {
    /// Counts itself against the width, as a thread running a query does.
    Enters,
    /// Keeps a loop of its own published, so the fork slot is taken.
    HoldsSlot,
}

/// Runs `body` on a 2-wide pool beside a second thread that moves in, or
/// out again, whenever the tick count reaches one of `flips`. `body`
/// ticks from inside the closures it hands the primitives; the tick that
/// flips returns only once the move is made, so every later loop is
/// admitted (or not) against the new state.
fn beside<R>(
    neighbour: Neighbour,
    flips: &[usize],
    body: impl FnOnce(&Pool, &(dyn Fn() + Sync)) -> R,
) -> R {
    let pool = &Pool::new(2);
    let (cmd_tx, cmd_rx) = mpsc::channel::<()>();
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let cmd_rx = Mutex::new(cmd_rx);
            let ack_tx = Mutex::new(ack_tx);
            let next = || cmd_rx.lock().unwrap().recv().is_ok();
            // The teller hangs up mid-handshake only when it is done.
            let ack = || ack_tx.lock().unwrap().send(()).is_ok();
            while next() {
                match neighbour {
                    Neighbour::Enters => {
                        let _caller = pool.enter();
                        let _ = ack() && next();
                    }
                    // In from inside the loop's body, out once `run` is back.
                    Neighbour::HoldsSlot => pool.run(2, 1, |s, _| {
                        let _ = s == 0 && ack() && next();
                    }),
                }
                ack();
            }
        });
        // Dropped when `body` is done, which hangs up on the neighbour
        // and ends its loop.
        let link = Mutex::new((cmd_tx, ack_rx));
        let ticks = AtomicUsize::new(0);
        body(pool, &|| {
            if flips.contains(&ticks.fetch_add(1, Ordering::Relaxed)) {
                let link = link.lock().unwrap();
                link.0.send(()).unwrap();
                link.1.recv().unwrap();
            }
        })
    })
}

/// The case the chunk-indexed partials exist for: the two passes of one
/// primitive admitted differently. Beside a thread that enters on the
/// first pass's last element, the first pass forks and the second is
/// refused a helper; beside one that holds the fork slot until then, the
/// first pass is walked by its caller — chunk by chunk, or the partials
/// the second, forked pass reads would be one lump — and the second forks.
#[test]
fn two_pass_primitives_survive_a_change_of_admission_between_passes() {
    let data: Vec<u64> = (0..50_000u64).map(|i| i * 2_654_435_761 % 1000).collect();
    let n = data.len();
    let mut acc = 0;
    let sums: Vec<u64> = data.iter().map(|&x| (acc += x, acc).1).collect();
    let thirds: Vec<u64> = data.iter().copied().filter(|&x| x % 3 == 0).collect();

    for neighbour in [Neighbour::Enters, Neighbour::HoldsSlot] {
        // Tick 0 is spent before the primitive starts.
        let flips = match neighbour {
            Neighbour::Enters => vec![n],
            Neighbour::HoldsSlot => vec![0, n],
        };
        // (forked, refused for want of a spare thread, refused the slot);
        // the neighbour's own loop is one of the forked.
        let want = match neighbour {
            Neighbour::Enters => (1, 1, 0),
            Neighbour::HoldsSlot => (2, 0, 1),
        };
        let modes = |pool: &Pool| {
            let s = pool.stats();
            (
                s.loops_forked,
                s.loops_inline_no_spare,
                s.loops_inline_slot_busy,
            )
        };
        let (got, stats) = beside(neighbour, &flips, |pool, tick| {
            tick();
            let got = scan_inclusive(pool, &data, 0, |a, b| (tick(), a + b).1);
            (got, modes(pool))
        });
        assert_eq!(got, sums, "{neighbour:?}");
        assert_eq!(stats, want, "{neighbour:?}");

        let (got, stats) = beside(neighbour, &flips, |pool, tick| {
            tick();
            let got = filter(pool, &data, |&x| (tick(), x % 3 == 0).1);
            (got, modes(pool))
        });
        assert_eq!(got, thirds, "{neighbour:?}");
        assert_eq!(stats, want, "{neighbour:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_inclusive_matches_fold(data in prop::collection::vec(-1000i64..1000, 0..20_000), t in pools()) {
        let pool = Pool::new(t);
        let got = scan_inclusive(&pool, &data, 0, |a, b| a + b);
        let mut acc = 0;
        let want: Vec<i64> = data.iter().map(|&x| { acc += x; acc }).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_exclusive_total_is_sum(data in prop::collection::vec(0u64..500, 0..20_000), t in pools()) {
        let pool = Pool::new(t);
        let (out, total) = scan_exclusive(&pool, &data, 0, |a, b| a + b);
        prop_assert_eq!(total, data.iter().sum::<u64>());
        prop_assert_eq!(out.len(), data.len());
        for (i, &o) in out.iter().enumerate() {
            prop_assert_eq!(o, data[..i].iter().sum::<u64>());
        }
    }

    #[test]
    fn filter_matches_iterator(data in prop::collection::vec(any::<u32>(), 0..20_000), m in 1u32..10, t in pools()) {
        let pool = Pool::new(t);
        let got = filter(&pool, &data, |&x| x % m == 0);
        let want: Vec<u32> = data.iter().copied().filter(|&x| x % m == 0).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn merge_sort_is_stable_sort(data in prop::collection::vec(0u16..128, 0..30_000), t in pools()) {
        let pool = Pool::new(t);
        let mut tagged: Vec<(u16, usize)> = data.iter().copied().zip(0..).collect();
        let mut want = tagged.clone();
        want.sort_by_key(|a| a.0); // std sort is stable
        merge_sort_by(&pool, &mut tagged, |a, b| a.0.cmp(&b.0));
        prop_assert_eq!(tagged, want);
    }

    #[test]
    fn counting_sort_is_stable_sort(data in prop::collection::vec(0usize..97, 0..30_000), t in pools()) {
        let pool = Pool::new(t);
        let tagged: Vec<(usize, usize)> = data.iter().copied().zip(0..).collect();
        let got = counting_sort_by_key(&pool, &tagged, |&(k, _)| k, 97);
        let mut want = tagged.clone();
        want.sort_by_key(|a| a.0);
        prop_assert_eq!(got, want);
    }

    /// Per-loop admission: a second thread enters and leaves the pool at
    /// arbitrary points of the run (so any loop of any primitive may fork
    /// or not, whatever the loop before it did), and every primitive over
    /// integers still returns what the sequential code returns.
    #[test]
    fn primitives_agree_while_a_second_caller_comes_and_goes(
        data in prop::collection::vec(0u32..1000, 0..40_000),
        quarter_passes in prop::collection::vec(0usize..48, 0..8),
        neighbour in prop_oneof![Just(Neighbour::Enters), Just(Neighbour::HoldsSlot)],
        entered in any::<bool>(),
    ) {
        let tagged: Vec<(u32, usize)> = data.iter().copied().zip(0..).collect();
        let mut stable = tagged.clone();
        stable.sort_by_key(|a| a.0); // std sort is stable
        let mut acc = 0u64;
        let sums: Vec<u64> = data.iter().map(|&x| (acc += u64::from(x), acc).1).collect();

        // In units of a quarter pass over the data, so that moves fall
        // inside first passes, between passes and before the first loop
        // (tick 0) at every input size.
        let flips: Vec<usize> = quarter_passes.iter().map(|q| q * data.len() / 4).collect();
        beside(neighbour, &flips, |pool, tick| {
            tick();
            let _caller = entered.then(|| pool.enter());
            let wide: Vec<u64> = data.iter().map(|&x| u64::from(x)).collect();
            let got = scan_inclusive(pool, &wide, 0, |a, b| (tick(), a + b).1);
            prop_assert_eq!(&got, &sums);
            let (got, total) = scan_exclusive(pool, &wide, 0, |a, b| (tick(), a + b).1);
            prop_assert_eq!(total, acc);
            let before: Vec<u64> = sums.iter().zip(&wide).map(|(s, x)| s - x).collect();
            prop_assert_eq!(got, before);

            let got = filter(pool, &data, |&x| (tick(), x % 3 == 0).1);
            let want: Vec<u32> = data.iter().copied().filter(|&x| x % 3 == 0).collect();
            prop_assert_eq!(got, want);

            // First maximum: the chunk partials combine in chunk order.
            let got = max_by(pool, &data, |a, b| (tick(), a.cmp(b)).1);
            let top = data.iter().copied().max();
            prop_assert_eq!(got, top.map(|m| (data.iter().position(|&x| x == m).unwrap(), m)));

            let mut sorted = tagged.clone();
            merge_sort_by(pool, &mut sorted, |a, b| (tick(), a.0.cmp(&b.0)).1);
            prop_assert_eq!(&sorted, &stable);

            let got = counting_sort_by_key(pool, &tagged, |&(k, _)| (tick(), k as usize).1, 1000);
            prop_assert_eq!(&got, &stable);
        });
    }
}
