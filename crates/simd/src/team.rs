//! The worker team: the one way this workspace reaches a second core.
//!
//! [`for_chunks_mut`] cuts a slice into fixed-length chunks and runs a
//! closure on every chunk, on the calling thread plus as many parked worker
//! threads as the call may use. The chunk boundaries are a pure function of
//! the arguments — never of the thread count — so a kernel that writes only
//! its own chunk produces the same bytes at every pool size.
//! [`for_chunks_mut_with`] also hands every part (every thread taking part)
//! a scratch element of its own, for kernels that need one per thread.
//!
//! * **Lifetime.** One process-wide team of `available_parallelism() − 1`
//!   threads, started by the first call that has more than one chunk and
//!   more than one thread to use, and never stopped. A process confined to
//!   one CPU never spawns a thread. On Linux a new worker moves off its
//!   spawner's CPU once, at birth (see `placement`).
//! * **Claim order.** The call is split into `parts = min(chunks,
//!   rayon::current_num_threads(), team size, scratch elements)` contiguous
//!   ranges of chunks, one per participating thread (the caller is part 0,
//!   and owns scratch element 0). A part claims the
//!   chunks of its own range through that range's atomic cursor and, once
//!   it is empty, drains the other ranges' cursors: neighbouring rows stay
//!   on one core while the cores run evenly, and a slow or descheduled core
//!   costs the call only the chunk it is holding.
//! * **Waiting** is spin-then-park on both sides with one bound,
//!   [`SPIN`]: a worker spins that long for its next job before it parks,
//!   the caller that long for the last worker before it parks. A hand-off a
//!   worker has not picked up by the time the caller has run out of chunks
//!   is taken back, so a call never waits for a wake-up it no longer needs.
//! * **Busy ⇒ inline.** The team runs one call at a time. A second
//!   concurrent caller, or a call nested inside a chunk, runs its chunks on
//!   its own thread, in order: no queue, nothing to configure.
//! * **Panics** inside a chunk are caught in the part that ran it; the
//!   other parts finish (and drain that part's range), then the caller
//!   re-raises the first payload. The team is intact for the next call.
//!
//! Nothing is allocated per call: the job lives on the caller's stack and
//! the cursors in the team.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long either side spins before it parks: the upper end of the
/// 25–40 µs a cross-vCPU futex wake-up measures on the reference host, so
/// the gaps between the operators of one request and between back-to-back
/// calls are bridged without a system call, and a team nobody is calling
/// costs 50 µs of one core, once.
const SPIN: Duration = Duration::from_micros(50);

/// One range of chunk indices and the cursor its chunks are claimed
/// through, on cache lines of its own: two parts working their own ranges
/// never share a line.
#[repr(align(128))]
struct Lane {
    next: AtomicUsize,
    end: AtomicUsize,
}

/// One call, on the caller's stack for as long as any part can reach it.
struct Job<'a> {
    /// Runs chunk `i` (second argument) as part `p` (first).
    chunk: &'a (dyn Fn(usize, usize) + Sync),
    /// The ranges of this call, one per part.
    lanes: &'a [Lane],
    /// Whom the last worker wakes.
    caller: Thread,
    /// Worker parts that have not finished (or been taken back) yet.
    pending: AtomicUsize,
    /// The first panic payload of any part.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Part `p`: its own range first, then the others', in ring order.
    fn run_part(&self, p: usize) {
        let drain = || {
            for q in 0..self.lanes.len() {
                let lane = &self.lanes[(p + q) % self.lanes.len()];
                // Relaxed: the cursor only deals out indices. The chunks'
                // memory reaches a worker through the hand-off slot and
                // comes back through `pending`.
                let end = lane.end.load(Ordering::Relaxed);
                loop {
                    let i = lane.next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    (self.chunk)(p, i);
                }
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(drain)) {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }
}

/// What the caller and the workers share.
struct Shared {
    /// Held by the one call the team is running.
    busy: AtomicBool,
    /// One per thread of the team, caller included.
    lanes: Box<[Lane]>,
    /// Worker `w`'s hand-off slot: null, or the job it is to join.
    slots: Box<[AtomicPtr<Job<'static>>]>,
    spin: Duration,
    shutdown: AtomicBool,
    /// The CPU [`Team::start`] ran on (see [`placement`]).
    #[cfg(target_os = "linux")]
    spawner_cpu: i32,
}

/// Waits for `ready`: polling for up to `spin`, then parked. Whoever makes
/// `ready` true unparks this thread afterwards, and `park` returns at once
/// when that `unpark` came first.
fn wait_until(spin: Duration, mut ready: impl FnMut() -> bool) {
    if ready() {
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < spin {
        std::hint::spin_loop();
        if ready() {
            return;
        }
    }
    while !ready() {
        thread::park();
    }
}

/// Where a new worker starts. A thread is born on its spawner's CPU, and
/// the reference VM's guest kernel leaves it there for 0.3–1 s while the
/// other vCPU idles (a spinning child of a thread that had been busy for
/// 3 s shared its CPU for 1 021 ms; `/proc/stat` shows the other idle
/// throughout) — the first second of a process's parallel life would run at
/// one thread's speed. So a worker that finds itself on the spawner's CPU
/// moves off it, once: it narrows its affinity to the other CPUs, which
/// migrates it there and then (≈0.1 ms), and puts the mask back. From then
/// on a wake-up finds it on a CPU of its own, also after seconds parked.
#[cfg(target_os = "linux")]
mod placement {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread is on (negative if unknown).
    pub fn current_cpu() -> i32 {
        // SAFETY: takes no arguments and only reads the caller's state.
        unsafe { sched_getcpu() }
    }

    /// The CPUs the calling thread may run on.
    pub fn affinity() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        (unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) } == 0).then_some(set)
    }

    /// Migrates the calling thread off `cpu` if it may run anywhere else;
    /// its affinity is afterwards what it was.
    pub fn leave(cpu: i32) {
        let (Some(before), Ok(cpu)) = (affinity(), usize::try_from(cpu)) else {
            return;
        };
        let mut others = before;
        match others.get_mut(cpu / 64) {
            Some(word) => *word &= !(1 << (cpu % 64)),
            None => return,
        }
        if others.iter().all(|word| *word == 0) {
            return;
        }
        for set in [&others, &before] {
            // SAFETY: `set` is a readable buffer of exactly the size passed.
            // A refusal changes nothing and is not worth more than that.
            unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) };
        }
    }
}

fn worker(shared: &Shared, w: usize) {
    #[cfg(target_os = "linux")]
    if placement::current_cpu() == shared.spawner_cpu {
        placement::leave(shared.spawner_cpu);
    }
    let slot = &shared.slots[w];
    loop {
        let mut job = ptr::null_mut();
        wait_until(shared.spin, || {
            // Acquire pairs with the caller's Release store of the slot:
            // the job, its lanes and the chunks' memory are visible.
            if !slot.load(Ordering::Relaxed).is_null() {
                job = slot.swap(ptr::null_mut(), Ordering::Acquire);
            }
            !job.is_null() || shared.shutdown.load(Ordering::Acquire)
        });
        if job.is_null() {
            return;
        }
        // SAFETY: a non-null slot holds a job whose caller is inside
        // `Team::run`, which returns only after `pending` has reached zero,
        // and this worker's decrement below is the last time it touches
        // the job: the pointee outlives every use made of it here.
        let job: &Job<'_> = unsafe { &*job };
        job.run_part(w + 1);
        let caller = job.caller.clone();
        // Release publishes this part's chunks (and panic payload) to the
        // caller's Acquire load of `pending`.
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// A raw pointer to the first element of the slice a call cuts up.
struct Base<T>(*mut T);

// SAFETY: the pointer is only ever turned into `&mut [T]` chunks that are
// pairwise disjoint (see `Team::run`), each used by one thread at a time;
// that is sending `&mut [T]`, which `T: Send` allows.
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    /// The chunk of `len` elements at element `at`.
    ///
    /// # Safety
    /// `at + len` must lie within the slice this was made from, no other
    /// reference to that range may exist while the result lives, and the
    /// slice must stay mutably borrowed for that long.
    #[allow(clippy::mut_from_ref)]
    unsafe fn chunk(&self, at: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(at), len)
    }
}

/// What a part's chunk function gets: its scratch element, the chunk's
/// index, the chunk.
type PartFn<'a, T, S> = &'a (dyn Fn(&mut S, usize, &mut [T]) + Sync);

/// The chunks in order, on the calling thread with `scratch`: a call of one
/// part.
fn inline<T, S>(data: &mut [T], chunk_len: usize, scratch: &mut S, f: PartFn<'_, T, S>) -> usize {
    data.chunks_mut(chunk_len)
        .enumerate()
        .for_each(|(i, chunk)| f(scratch, i, chunk));
    1
}

/// A team of parked worker threads.
struct Team {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Team {
    /// A team of up to `workers` threads (fewer if the OS refuses one) that
    /// spin for `spin` before they park.
    fn start(workers: usize, spin: Duration) -> Self {
        let shared = Arc::new(Shared {
            busy: AtomicBool::new(false),
            lanes: (0..=workers)
                .map(|_| Lane {
                    next: AtomicUsize::new(0),
                    end: AtomicUsize::new(0),
                })
                .collect(),
            slots: (0..workers)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            spin,
            shutdown: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            spawner_cpu: placement::current_cpu(),
        });
        let workers = (0..workers)
            .map_while(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bitflow-team-{}", w + 1))
                    .spawn(move || worker(&shared, w))
                    .ok()
            })
            .collect();
        Self { shared, workers }
    }

    /// [`for_chunks_mut`] on this team, for a caller entitled to `threads`
    /// threads (the tests' entry; the process-wide team is entered through
    /// [`Team::run_with`]).
    #[cfg(test)]
    fn run<T: Send>(
        &self,
        threads: usize,
        data: &mut [T],
        chunk_len: usize,
        f: &(dyn Fn(usize, &mut [T]) + Sync),
    ) -> usize {
        // A `Vec` of a zero-sized type never allocates.
        let mut parts = vec![(); threads.max(1)];
        self.run_with(threads, data, chunk_len, &mut parts, &|_, i, chunk| {
            f(i, chunk)
        })
    }

    /// [`for_chunks_mut_with`] on this team, for a caller entitled to
    /// `threads` threads.
    fn run_with<T: Send, S: Send>(
        &self,
        threads: usize,
        data: &mut [T],
        chunk_len: usize,
        scratch: &mut [S],
        f: PartFn<'_, T, S>,
    ) -> usize {
        let shared = &*self.shared;
        let chunks = data.len().div_ceil(chunk_len);
        let parts = chunks
            .min(threads)
            .min(self.workers.len() + 1)
            .min(scratch.len());
        if parts <= 1
            || shared
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return inline(data, chunk_len, &mut scratch[0], f);
        }
        let (len, base, per_part) = (
            data.len(),
            Base(data.as_mut_ptr()),
            Base(scratch.as_mut_ptr()),
        );
        let chunk = |p: usize, i: usize| {
            let at = i * chunk_len;
            // SAFETY: every index below `chunks` is dealt out exactly once
            // (the lanes partition `0..chunks` and a cursor yields each of
            // its values once), so the ranges `at..at + chunk_len` clipped
            // to `len` are disjoint and inside `data`, which this call
            // holds mutably borrowed until every part is done with them.
            // Part `p < parts ≤ scratch.len()` is run by one thread, one
            // chunk at a time, so its scratch element is that thread's
            // alone for as long as the chunk runs.
            let (scratch, chunk) = unsafe {
                (
                    &mut per_part.chunk(p, 1)[0],
                    base.chunk(at, chunk_len.min(len - at)),
                )
            };
            f(scratch, i, chunk);
        };
        let lanes = &shared.lanes[..parts];
        for (p, lane) in lanes.iter().enumerate() {
            lane.next.store(p * chunks / parts, Ordering::Relaxed);
            lane.end.store((p + 1) * chunks / parts, Ordering::Relaxed);
        }
        let job = Job {
            chunk: &chunk,
            lanes,
            caller: thread::current(),
            pending: AtomicUsize::new(parts - 1),
            panic: Mutex::new(None),
        };
        // The lifetime-erased hand-off: workers see a `Job<'static>` that
        // is really this frame's (see the SAFETY note in `worker`).
        let handoff = ptr::from_ref(&job).cast::<Job<'static>>().cast_mut();
        for (slot, worker) in shared.slots.iter().zip(&self.workers).take(parts - 1) {
            slot.store(handoff, Ordering::Release);
            worker.thread().unpark();
        }
        job.run_part(0);
        // Every chunk is claimed by now. A worker that has not picked its
        // hand-off up would find nothing to do: take it back instead of
        // waiting for that worker to wake.
        let idle = shared.slots[..parts - 1]
            .iter()
            .filter(|slot| {
                slot.compare_exchange(
                    handoff,
                    ptr::null_mut(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            })
            .count();
        job.pending.fetch_sub(idle, Ordering::Relaxed);
        wait_until(shared.spin, || job.pending.load(Ordering::Acquire) == 0);
        shared.busy.store(false, Ordering::Release);
        if let Some(payload) = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        parts - idle
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            worker.thread().unpark();
            // A worker catches every panic of the chunks it runs.
            let _ = worker.join();
        }
    }
}

/// The CPUs this process may run on, read once (the call reads the cgroup
/// files every time).
fn machine_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The threads a call with `chunks` chunks made here would run on, if the
/// team is free: at most one per chunk, per thread of the installed
/// [`rayon::ThreadPool`] scope, and per CPU of this process.
pub fn parts(chunks: usize) -> usize {
    chunks
        .min(rayon::current_num_threads())
        .min(machine_threads())
        .max(1)
}

/// The most threads a call here can run on — what a caller sizes
/// per-part scratch for.
pub fn max_parts() -> usize {
    machine_threads()
}

/// Runs `f(chunk_index, chunk)` on every `chunk_len`-element chunk of
/// `data` (the last may be shorter), on the calling thread and — when the
/// call has more than one chunk and more than one thread to use — the
/// process-wide team (see the module docs). Returns the number of threads
/// that took part; 1 means the chunks ran here, in order.
///
/// # Panics
/// If `chunk_len` is zero, or with the payload of a chunk that panicked.
pub fn for_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) -> usize {
    // A `Vec` of a zero-sized type never allocates.
    for_chunks_mut_with(
        data,
        chunk_len,
        &mut vec![(); max_parts()],
        |_, i, chunk| f(i, chunk),
    )
}

/// [`for_chunks_mut`] with per-thread scratch: `f(scratch, chunk_index,
/// chunk)`, where `scratch` is the element of `scratch` that belongs to
/// the part (the thread) running the chunk — element 0 on the calling
/// thread. At most `scratch.len()` threads take part, so a caller that
/// wants every thread sizes it [`max_parts`].
///
/// # Panics
/// If `chunk_len` is zero or `scratch` empty, or with the payload of a
/// chunk that panicked.
pub fn for_chunks_mut_with<T: Send, S: Send>(
    data: &mut [T],
    chunk_len: usize,
    scratch: &mut [S],
    f: impl Fn(&mut S, usize, &mut [T]) + Sync,
) -> usize {
    static TEAM: OnceLock<Team> = OnceLock::new();
    assert!(chunk_len > 0, "chunk length must be non-zero");
    assert!(
        !scratch.is_empty(),
        "one scratch element per part, at least one"
    );
    let threads = parts(data.len().div_ceil(chunk_len)).min(scratch.len());
    if threads <= 1 {
        return inline(data, chunk_len, &mut scratch[0], &f);
    }
    TEAM.get_or_init(|| Team::start(machine_threads() - 1, SPIN))
        .run_with(threads, data, chunk_len, scratch, &f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A team the tests own: the park path is taken on every wait.
    fn parking_team(workers: usize) -> Team {
        Team::start(workers, Duration::ZERO)
    }

    fn fill(team: &Team, threads: usize, data: &mut [usize], chunk_len: usize) -> usize {
        team.run(threads, data, chunk_len, &|i, chunk: &mut [usize]| {
            chunk.iter_mut().for_each(|x| *x += i + 1)
        })
    }

    /// About a microsecond: long enough for a worker to reach a job whose
    /// chunks do nothing else before the caller has run them all.
    fn dawdle() {
        (0..20).for_each(|_| std::hint::spin_loop());
    }

    fn assert_filled_once(data: &[usize], chunk_len: usize) {
        for (at, &x) in data.iter().enumerate() {
            assert_eq!(x, at / chunk_len + 1, "element {at}");
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once_at_every_geometry() {
        let team = Team::start(3, SPIN);
        for (len, chunk_len) in [(0, 3), (1, 1), (103, 10), (64, 64), (65, 64), (1000, 1)] {
            for threads in [1, 2, 4, 9] {
                let mut data = vec![0usize; len];
                let ran = fill(&team, threads, &mut data, chunk_len);
                assert_filled_once(&data, chunk_len);
                assert!(ran >= 1 && ran <= threads.min(4), "{ran} parts");
            }
        }
    }

    #[test]
    fn ten_thousand_tiny_jobs_borrow_the_callers_stack() {
        // Each job's closure and output live in this frame and die before
        // the next job starts: a worker still holding the previous job's
        // pointer, or a chunk handed out twice, is what ASan would see.
        for team in [Team::start(1, SPIN), parking_team(2)] {
            for round in 0..10_000usize {
                let mut out = [0usize; 8];
                let bias = [round; 3];
                let ran = team.run(3, &mut out, 1, &|i, chunk: &mut [usize]| {
                    if round % 2 == 1 {
                        dawdle();
                    }
                    chunk[0] = bias[i % 3] + i
                });
                assert!((1..=3).contains(&ran));
                assert_eq!(out, std::array::from_fn(|i| round + i));
            }
        }
    }

    #[test]
    fn fewer_chunks_than_parts_leaves_the_rest_of_the_team_parked() {
        let team = parking_team(3);
        let mut data = vec![0usize; 2 * 5];
        let ran = fill(&team, 8, &mut data, 5);
        assert!(ran <= 2, "two chunks cannot occupy {ran} threads");
        assert_filled_once(&data, 5);
        assert!(team.shared.slots[1..]
            .iter()
            .all(|slot| slot.load(Ordering::Relaxed).is_null()));
    }

    #[test]
    fn park_and_unpark_never_lose_a_wake_up() {
        // Spin bound zero: every hand-off races a worker on its way into
        // `park` and every barrier a caller on its way there. A lost
        // wake-up hangs the test; a stale one shows as a wrong sum.
        let team = parking_team(1);
        let mut joined = 0;
        for round in 0..20_000usize {
            let mut data = [0usize; 4];
            joined += team.run(2, &mut data, 1, &|i, chunk: &mut [usize]| {
                dawdle();
                chunk[0] += i + 1;
            }) - 1;
            assert_eq!(data, [1, 2, 3, 4], "round {round}");
        }
        assert!(
            joined > 0 || machine_threads() == 1,
            "the worker never got to a job"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_worker_keeps_the_affinity_it_was_born_with() {
        // Leaving the spawner's CPU narrows the mask for a moment; what a
        // job sees on either thread is the mask of the thread that started
        // the team. Two chunks that meet, so both threads report.
        let team = Team::start(1, SPIN);
        let mine = placement::affinity().expect("affinity is readable");
        let both_in = std::sync::Barrier::new(2);
        let mut seen = [None, None];
        team.run(2, &mut seen, 1, &|_, slot: &mut [Option<[u64; 16]>]| {
            both_in.wait();
            slot[0] = placement::affinity();
        });
        assert_eq!(seen, [Some(mine), Some(mine)]);
    }

    #[test]
    fn every_part_owns_its_scratch_element_while_it_runs() {
        // A chunk marks its part's element busy, dawdles, and clears it: a
        // part handed to two threads at once, or a scratch element shared
        // by two parts, shows as a chunk that finds it already busy.
        let team = parking_team(3);
        for scratch_len in [1usize, 2, 4, 9] {
            let mut scratch = vec![(false, 0usize); scratch_len];
            let mut data = vec![0usize; 64];
            let ran = team.run_with(4, &mut data, 2, &mut scratch, &|s, i, chunk| {
                assert!(!std::mem::replace(&mut s.0, true), "scratch shared");
                dawdle();
                s.0 = false;
                s.1 += 1;
                chunk.iter_mut().for_each(|x| *x += i + 1);
            });
            assert_filled_once(&data, 2);
            assert!(
                ran <= scratch_len.min(4),
                "{ran} parts for {scratch_len} elements"
            );
            assert_eq!(scratch.iter().map(|s| s.1).sum::<usize>(), 32);
            let used = scratch.iter().filter(|s| s.1 > 0).count();
            assert!(used <= ran, "{used} elements used by {ran} parts");
        }
    }

    #[test]
    fn a_team_of_no_workers_spawns_nothing_and_runs_inline() {
        // What `available_parallelism() == 1` builds.
        let team = Team::start(0, SPIN);
        assert!(team.workers.is_empty());
        let mut data = vec![0usize; 40];
        assert_eq!(fill(&team, 8, &mut data, 4), 1);
        assert_filled_once(&data, 4);
        assert_eq!(parts(0), 1);
        assert!(parts(1_000) <= machine_threads());
    }

    #[test]
    fn a_busy_team_runs_a_second_caller_and_nested_calls_inline() {
        let team = Team::start(1, SPIN);
        let nested_parts = AtomicUsize::new(0);
        let mut outer = [0usize; 4];
        team.run(2, &mut outer, 1, &|i, chunk: &mut [usize]| {
            let mut inner = [0usize; 6];
            // From inside a chunk, and from a thread of its own while this
            // chunk holds the team.
            let ran = match i % 2 {
                0 => fill(&team, 2, &mut inner, 2),
                _ => thread::scope(|s| {
                    let second = s.spawn(|| fill(&team, 2, &mut inner, 2));
                    second.join().expect("second caller")
                }),
            };
            nested_parts.fetch_max(ran, Ordering::Relaxed);
            assert_filled_once(&inner, 2);
            chunk[0] = i + 1;
        });
        assert_eq!(outer, [1, 2, 3, 4]);
        assert_eq!(nested_parts.into_inner(), 1, "both ran inline");
        assert!(!team.shared.busy.load(Ordering::Relaxed));
    }

    #[test]
    fn a_panic_in_any_part_is_re_raised_after_the_barrier_and_the_team_lives() {
        let team = parking_team(1);
        for bad in [0usize, 7] {
            let mut data = vec![0usize; 8];
            // The first chunks of the two ranges meet, so both parts are
            // running when one of them panics.
            let both_in = std::sync::Barrier::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                team.run(2, &mut data, 1, &|i, chunk: &mut [usize]| {
                    if i % 4 == 0 {
                        both_in.wait();
                    }
                    assert!(i != bad, "chunk {i} is bad");
                    chunk[0] = i + 1;
                })
            }));
            let payload = caught.expect_err("the panic crosses the team");
            let msg = payload.downcast_ref::<String>().expect("assert message");
            assert_eq!(msg, &format!("chunk {bad} is bad"));
            // The other part drained what the panicking part left behind.
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, if i == bad { 0 } else { i + 1 }, "chunk {i}");
            }
            assert!(!team.shared.busy.load(Ordering::Relaxed));
            let mut next = vec![0usize; 8];
            fill(&team, 2, &mut next, 1);
            assert_filled_once(&next, 1);
        }
    }
}
