//! Which CPUs this process may use, and putting a thread on one of them.
//!
//! The two runtime workloads start a fresh set of load threads for every
//! cell, and a cell lasts tens of milliseconds. On the two-vCPU machines this
//! repository is measured on the kernel often starts both threads of a cell
//! on one CPU and takes up to a second to move one of them: two spinning
//! threads read 386, 381, 306, 200, 209 ms for the same work in five
//! consecutive tries. A cell whose threads share a CPU never pays for a lock
//! or a wake-up crossing cores and runs several times as fast, so throughput
//! spread 11–24 % over eight runs by where threads happened to land. Long-lived
//! threads in a real program end up spread over the cores, so that is the
//! state the benchmark fixes: each load thread of a cell runs on a CPU of its
//! own (`runtime::OneCpuPerCaller`). The analysis pool and the explorer keep
//! their long-lived workers wherever the kernel puts them.
//!
//! `std` has no call for this; the two functions come from the C library
//! `std` already links.

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::{c_int, c_ulong};

    const BITS: usize = c_ulong::BITS as usize;
    /// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 1024 / BITS;

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut allowed: [c_ulong; WORDS] = [0; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the byte
        // length passed, which is what the call fills in; pid 0 is the
        // calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * BITS)
            .filter(|cpu| allowed[cpu / BITS] & (1 << (cpu % BITS)) != 0)
            .collect()
    }

    pub fn pin_this_thread(cpu: usize) -> bool {
        if cpu >= WORDS * BITS {
            return false;
        }
        let mut only: [c_ulong; WORDS] = [0; WORDS];
        only[cpu / BITS] = 1 << (cpu % BITS);
        // SAFETY: `only` is a live buffer of exactly the byte length passed
        // and the call only reads it; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_this_thread(_cpu: usize) -> bool {
        false
    }
}

/// The CPUs the calling thread may run on, ascending; empty where the
/// platform cannot say.
pub fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Restricts the calling thread to `cpu`. `false` where the platform has no
/// such call or refuses it; the thread then stays where it was.
pub fn pin_this_thread(cpu: usize) -> bool {
    imp::pin_this_thread(cpu)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_is_allowed_exactly_that_cpu() {
        // Affinity is per thread, so pin a scratch thread, not the test
        // runner's.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            assert!(!before.is_empty());
            let cpu = *before.last().unwrap();
            assert!(pin_this_thread(cpu));
            assert_eq!(allowed_cpus(), [cpu]);
        })
        .join()
        .unwrap();
    }
}
