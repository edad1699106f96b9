//! On-CPU time of the calling thread and of the whole process.
//!
//! Wall time on a shared virtual machine also counts the time the host runs
//! other machines instead of this one (steal) and the time other processes
//! hold the CPU. The kernel's per-thread and per-process CPU clocks count
//! neither, so the benchmark's end-to-end timings read them: they move with
//! the work the program does, not with how busy the host is.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux CPU-time clocks");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has run so far.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have run so far.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sleeping_costs_no_cpu_time() {
        let before = thread();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread() - before < Duration::from_millis(10));
    }

    #[test]
    fn spinning_costs_cpu_time_no_longer_than_the_wall() {
        let (wall, before, process_before) = (Instant::now(), thread(), process());
        while thread() - before < Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        let spent = thread() - before;
        assert!(spent <= wall.elapsed());
        assert!(process() - process_before >= spent);
    }
}
