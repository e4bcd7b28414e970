//! Readiness polling for the event-loop server core.
//!
//! On Linux this is a thin wrapper over `epoll` reached through raw
//! syscall bindings (`std::os::fd` for fd types, hand-declared
//! `extern "C"` prototypes — the workspace builds without crates.io,
//! so no `libc`/`mio`). Level-triggered: a connection with unread
//! bytes or unflushed writes keeps reporting ready, which makes the
//! loop logic restart-safe (nothing is lost if a cycle stops early).
//!
//! Elsewhere (the portability fallback) a sweep poller reports every
//! registered fd as ready after a short sleep; non-blocking sockets
//! turn spurious readiness into a cheap `WouldBlock`, so the server
//! stays correct — merely less efficient — on platforms without epoll.
//!
//! All `unsafe` in the crate lives in [`sys`]; the wrapper upholds the
//! invariants the syscalls need (valid fds, correctly sized event
//! buffers).

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readiness interest for one registered fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest { readable: true, writable: false };
    pub(crate) const READ_WRITE: Interest = Interest { readable: true, writable: true };
    pub(crate) const WRITE: Interest = Interest { readable: false, writable: true };
}

/// One readiness event. The loop is level-triggered, so the token is
/// all it needs: errors and hangups surface through the non-blocking
/// read, and spurious wakeups cost one `WouldBlock`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub(crate) token: u64,
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! Raw epoll bindings. The only unsafe module in the crate.

    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    /// Peer shutdown of the write half: requested with `EPOLLIN` so
    /// half-closed connections wake the loop (the read then surfaces
    /// the EOF). A connection polled for writing only is not read, so
    /// a half-close would report ready on every wait.
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Kernel `struct epoll_event`. x86-64 packs it to 12 bytes; other
    /// architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    pub(super) fn create() -> io::Result<RawFd> {
        // SAFETY: no pointers involved; the returned fd is owned by the
        // caller and closed in `Poller::drop`.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub(super) fn ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; DEL ignores the pointer but a
        // valid one is passed anyway (pre-2.6.9 kernels required it).
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(super) fn wait(
        epfd: RawFd,
        buf: &mut [EpollEvent],
        timeout_ms: c_int,
    ) -> io::Result<usize> {
        // SAFETY: `buf` is a valid mutable slice and `maxevents` is its
        // exact length, so the kernel never writes out of bounds.
        let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    pub(super) fn close_fd(fd: RawFd) {
        // SAFETY: called exactly once per owned fd, from Drop.
        unsafe {
            close(fd);
        }
    }
}

/// Largest readiness batch collected per `wait` call.
const MAX_EVENTS: usize = 1024;

#[cfg(target_os = "linux")]
pub(crate) use linux_impl::Poller;

#[cfg(target_os = "linux")]
mod linux_impl {
    use super::*;

    /// Level-triggered epoll instance.
    pub(crate) struct Poller {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                epfd: sys::create()?,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = 0;
            if interest.readable {
                m |= sys::EPOLLIN | sys::EPOLLRDHUP;
            }
            if interest.writable {
                m |= sys::EPOLLOUT;
            }
            m
        }

        // `&mut self` keeps the API identical to the fallback poller,
        // which tracks registrations in a map.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            sys::ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::mask(interest), token)
        }

        pub(crate) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::mask(interest), token)
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) {
            // Close races (fd already gone) are harmless here.
            let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Collect readiness into `events` (cleared first), waiting at
        /// most `timeout`.
        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = match sys::wait(self.epfd, &mut self.buf, ms) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.buf[..n] {
                events.push(Event { token: ev.data });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback_impl::Poller;

#[cfg(not(target_os = "linux"))]
mod fallback_impl {
    use super::*;
    use std::collections::HashMap;

    /// Portability fallback: report every registered fd as ready after
    /// a short sleep. Spurious readiness costs one `WouldBlock` per fd
    /// per sweep; correctness is unaffected because every socket the
    /// event loop owns is non-blocking.
    pub(crate) struct Poller {
        registered: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller { registered: HashMap::new() })
        }

        pub(crate) fn register(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, i));
            Ok(())
        }

        pub(crate) fn reregister(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, i));
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) {
            self.registered.remove(&fd);
        }

        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<()> {
            events.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(2)));
            for (&_fd, &(token, _interest)) in &self.registered {
                events.push(Event { token });
            }
            Ok(())
        }
    }
}
