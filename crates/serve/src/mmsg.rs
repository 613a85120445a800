//! Batched UDP I/O: `recvmmsg`/`sendmmsg` without libc.
//!
//! One `recv_from` syscall per packet caps a DNS front end at the syscall
//! rate, not the hardware; Linux's `recvmmsg`/`sendmmsg` move a whole
//! batch of datagrams per kernel crossing. The workspace is std-only, so
//! this module issues the two syscalls directly through `core::arch::asm!`
//! shims (x86-64 and aarch64) with hand-laid `#[repr(C)]` mirrors of the
//! kernel's `iovec`/`msghdr`/`mmsghdr` ABI — no `libc` crate, no FFI
//! declarations.
//!
//! Everything above the syscall speaks the safe [`BatchIo`] trait:
//!
//! * [`batch_io`] returns the mmsg-backed implementation on supported
//!   Linux targets when `batch > 1`, and a portable one-packet fallback
//!   (plain `recv_from`/`send_to`) everywhere else — same trait, same
//!   arena, so the serving loop is written once;
//! * [`PacketArena`] owns every buffer a worker shard touches: `batch`
//!   receive slots, `batch` send slots, lengths, and peer addresses, all
//!   allocated once at spawn. The per-packet loop borrows slots in place
//!   and never allocates.
//!
//! The blocking contract: `recv_batch` waits for the first datagram (the
//! socket's read timeout bounds the wait so callers can poll a stop flag)
//! and then drains up to `batch` without waiting again (`MSG_WAITFORONE`).
//! `send_batch` writes every non-empty send slot, retrying partial sends.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};

/// Upper bound on a batch — keeps arena sizing sane (64 KiB slots × 1024
/// would be 64 MiB per worker; nobody needs more than this per syscall).
pub const MAX_BATCH: usize = 1024;

/// Preallocated per-shard packet storage: receive slots, send slots,
/// lengths, and peer addresses for one batch.
///
/// The same arena serves both directions: a server receives into the recv
/// slots, writes each response into the matching send slot (the peer
/// recorded at receive time becomes the send destination), and a client
/// fills send slots + peers itself via [`PacketArena::set_outgoing`].
#[derive(Debug)]
pub struct PacketArena {
    batch: usize,
    slot: usize,
    recv_bufs: Box<[u8]>,
    recv_lens: Box<[usize]>,
    send_bufs: Box<[u8]>,
    send_lens: Box<[usize]>,
    peers: Box<[SocketAddr]>,
}

impl PacketArena {
    /// Allocates an arena of `batch` slots of `slot` bytes each (both
    /// clamped to sane bounds). This is the only allocation the steady
    /// state UDP path performs.
    pub fn new(batch: usize, slot: usize) -> PacketArena {
        let batch = batch.clamp(1, MAX_BATCH);
        let slot = slot.max(512);
        let dummy = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0));
        PacketArena {
            batch,
            slot,
            recv_bufs: vec![0u8; batch * slot].into_boxed_slice(),
            recv_lens: vec![0usize; batch].into_boxed_slice(),
            send_bufs: vec![0u8; batch * slot].into_boxed_slice(),
            send_lens: vec![0usize; batch].into_boxed_slice(),
            peers: vec![dummy; batch].into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The received datagram in slot `i`.
    pub fn packet(&self, i: usize) -> &[u8] {
        &self.recv_bufs[i * self.slot..i * self.slot + self.recv_lens[i]]
    }

    /// The peer address recorded for slot `i` (source on receive,
    /// destination on send).
    pub fn peer(&self, i: usize) -> SocketAddr {
        self.peers[i]
    }

    /// Borrows slot `i` for processing: the received packet, the whole
    /// writable send slot, and the peer — in one call so the per-packet
    /// loop needs no copies.
    pub fn io_slot(&mut self, i: usize) -> (&[u8], &mut [u8], SocketAddr) {
        let recv = &self.recv_bufs[i * self.slot..i * self.slot + self.recv_lens[i]];
        let send = &mut self.send_bufs[i * self.slot..(i + 1) * self.slot];
        (recv, send, self.peers[i])
    }

    /// Records how many bytes of send slot `i` are a valid response; 0
    /// means "no response" and [`BatchIo::send_batch`] skips the slot.
    pub fn set_response_len(&mut self, i: usize, len: usize) {
        debug_assert!(len <= self.slot);
        self.send_lens[i] = len.min(self.slot);
    }

    /// Client-side fill: copies `payload` into send slot `i` aimed at
    /// `dst`. Panics if the payload exceeds the slot size.
    pub fn set_outgoing(&mut self, i: usize, payload: &[u8], dst: SocketAddr) {
        assert!(payload.len() <= self.slot, "payload exceeds arena slot");
        self.send_bufs[i * self.slot..i * self.slot + payload.len()].copy_from_slice(payload);
        self.send_lens[i] = payload.len();
        self.peers[i] = dst;
    }

    /// Test scaffolding: fills receive slot `i` as if `payload` had just
    /// arrived from `src`.
    #[cfg(test)]
    pub(crate) fn set_incoming(&mut self, i: usize, payload: &[u8], src: SocketAddr) {
        self.recv_slot_mut(i)[..payload.len()].copy_from_slice(payload);
        self.recv_lens[i] = payload.len();
        self.peers[i] = src;
    }

    fn recv_slot_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.recv_bufs[i * self.slot..(i + 1) * self.slot]
    }

    /// The valid bytes of send slot `i` (empty = skipped).
    pub(crate) fn send_slot(&self, i: usize) -> &[u8] {
        &self.send_bufs[i * self.slot..i * self.slot + self.send_lens[i]]
    }
}

/// Batched datagram I/O over one UDP socket and one [`PacketArena`].
///
/// Implementations: the raw `recvmmsg`/`sendmmsg` path (Linux
/// x86-64/aarch64, `batch > 1`) and the portable one-packet fallback.
/// Both obey the same contract, so the serving loop and the load
/// generator are written once against this trait.
pub trait BatchIo: Send {
    /// Receives up to `arena.batch()` datagrams: blocks (bounded by the
    /// socket's read timeout) for the first, then takes whatever else is
    /// already queued without blocking again. Fills packet lengths and
    /// peers for slots `0..n` and returns `n ≥ 1`, or the socket error
    /// (`WouldBlock`/`TimedOut` on a quiet socket).
    fn recv_batch(&mut self, sock: &UdpSocket, arena: &mut PacketArena) -> io::Result<usize>;

    /// Sends the non-empty send slots among `0..n` to their recorded
    /// peers, retrying partial batches until all are handed to the kernel.
    fn send_batch(&mut self, sock: &UdpSocket, arena: &mut PacketArena, n: usize)
        -> io::Result<()>;
}

/// Picks the best [`BatchIo`] for `batch` on this platform: the raw
/// mmsg syscalls when supported and `batch > 1`, otherwise the portable
/// one-packet fallback (also selectable explicitly by passing `batch = 1`,
/// which is what the `batched_and_fallback` loopback test does).
pub fn batch_io(batch: usize) -> Box<dyn BatchIo> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if batch > 1 {
        return Box::new(linux::MmsgIo::new(batch.min(MAX_BATCH)));
    }
    let _ = batch;
    Box::new(OnePacketIo)
}

/// Portable fallback: one `recv_from`/`send_to` per datagram through the
/// same arena. `recv_batch` returns at most one packet per call.
#[derive(Debug, Default)]
pub struct OnePacketIo;

impl BatchIo for OnePacketIo {
    fn recv_batch(&mut self, sock: &UdpSocket, arena: &mut PacketArena) -> io::Result<usize> {
        let (n, src) = sock.recv_from(arena.recv_slot_mut(0))?;
        arena.recv_lens[0] = n;
        arena.peers[0] = src;
        Ok(1)
    }

    fn send_batch(
        &mut self,
        sock: &UdpSocket,
        arena: &mut PacketArena,
        n: usize,
    ) -> io::Result<()> {
        for i in 0..n.min(arena.batch) {
            if arena.send_lens[i] == 0 {
                continue;
            }
            sock.send_to(arena.send_slot(i), arena.peers[i])?;
        }
        Ok(())
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod linux {
    //! The raw-syscall path. All `unsafe` in the crate lives here: two
    //! inline-asm syscall shims plus the `#[repr(C)]` ABI mirrors they
    //! point into. Invariants keeping it sound:
    //!
    //! * every pointer written into an `iovec`/`msghdr` targets memory
    //!   owned by `self` or the borrowed arena, alive across the syscall
    //!   (pointers are rebuilt immediately before each syscall, so moves
    //!   of the `MmsgIo` box between calls are harmless);
    //! * `msg_len` returned by the kernel is clamped to the slot size
    //!   before use;
    //! * a negative return is `-errno`, surfaced as `io::Error` (never
    //!   touching `errno` TLS, which the shim bypasses).

    use super::{BatchIo, PacketArena};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::os::fd::AsRawFd;

    /// `recvmmsg` flag: block for the first message only.
    const MSG_WAITFORONE: u32 = 0x10000;
    const AF_INET: u16 = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_RECVMMSG: usize = 299;
    #[cfg(target_arch = "x86_64")]
    const SYS_SENDMMSG: usize = 307;
    #[cfg(target_arch = "aarch64")]
    const SYS_RECVMMSG: usize = 243;
    #[cfg(target_arch = "aarch64")]
    const SYS_SENDMMSG: usize = 269;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall5(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall5(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x8") nr,
            options(nostack),
        );
        ret
    }

    /// Kernel `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// Kernel `struct sockaddr_in` (16 bytes).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        port_be: [u8; 2],
        addr_be: [u8; 4],
        zero: [u8; 8],
    }

    impl SockAddrIn {
        const ZERO: SockAddrIn = SockAddrIn {
            family: 0,
            port_be: [0; 2],
            addr_be: [0; 4],
            zero: [0; 8],
        };

        fn from_peer(peer: SocketAddr) -> SockAddrIn {
            let v4 = match peer {
                SocketAddr::V4(v4) => v4,
                // The serving sockets are IPv4-bound; an IPv6 peer cannot
                // occur. Encode the unspecified address defensively.
                SocketAddr::V6(_) => SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
            };
            SockAddrIn {
                family: AF_INET,
                port_be: v4.port().to_be_bytes(),
                addr_be: v4.ip().octets(),
                zero: [0; 8],
            }
        }

        fn to_peer(self) -> SocketAddr {
            SocketAddr::V4(SocketAddrV4::new(
                Ipv4Addr::from(self.addr_be),
                u16::from_be_bytes(self.port_be),
            ))
        }
    }

    /// Kernel `struct msghdr` (x86-64/aarch64 layout; `repr(C)` inserts
    /// the same padding after `namelen` and `flags` as the C definition).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut SockAddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// Kernel `struct mmsghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MmsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    const EINTR: i32 = 4;

    /// The `recvmmsg`/`sendmmsg`-backed [`BatchIo`]. The header, iovec,
    /// and address arrays are allocated once and re-pointed before every
    /// syscall.
    pub(super) struct MmsgIo {
        batch: usize,
        iovecs: Vec<IoVec>,
        addrs: Vec<SockAddrIn>,
        hdrs: Vec<MmsgHdr>,
    }

    // SAFETY: the raw pointers inside are dangling between calls (they are
    // rebuilt from `self` and the arena before every syscall) and never
    // shared; moving the struct across threads is sound.
    #[allow(unsafe_code)]
    unsafe impl Send for MmsgIo {}

    impl MmsgIo {
        pub(super) fn new(batch: usize) -> MmsgIo {
            let null_hdr = MmsgHdr {
                hdr: MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov: std::ptr::null_mut(),
                    iovlen: 0,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            };
            MmsgIo {
                batch,
                iovecs: vec![
                    IoVec {
                        base: std::ptr::null_mut(),
                        len: 0
                    };
                    batch
                ],
                addrs: vec![SockAddrIn::ZERO; batch],
                hdrs: vec![null_hdr; batch],
            }
        }
    }

    impl BatchIo for MmsgIo {
        fn recv_batch(&mut self, sock: &UdpSocket, arena: &mut PacketArena) -> io::Result<usize> {
            let n = self.batch.min(arena.batch);
            let slot = arena.slot;
            for i in 0..n {
                self.iovecs[i] = IoVec {
                    base: arena.recv_bufs[i * slot..].as_mut_ptr(),
                    len: slot,
                };
                self.addrs[i] = SockAddrIn::ZERO;
                self.hdrs[i] = MmsgHdr {
                    hdr: MsgHdr {
                        name: &mut self.addrs[i],
                        namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        iov: &mut self.iovecs[i],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                };
            }
            // SAFETY: hdrs/iovecs/addrs and the arena slots all outlive
            // the call; counts match the arrays just written.
            let r = unsafe {
                syscall5(
                    SYS_RECVMMSG,
                    sock.as_raw_fd() as usize,
                    self.hdrs.as_mut_ptr() as usize,
                    n,
                    MSG_WAITFORONE as usize,
                    0, // no timeout struct; SO_RCVTIMEO bounds the first wait
                )
            };
            if r < 0 {
                return Err(io::Error::from_raw_os_error(-r as i32));
            }
            let got = (r as usize).min(n);
            for i in 0..got {
                arena.recv_lens[i] = (self.hdrs[i].len as usize).min(slot);
                arena.peers[i] = if self.addrs[i].family == AF_INET {
                    self.addrs[i].to_peer()
                } else {
                    // Not addressable for a reply: drop by zeroing.
                    arena.recv_lens[i] = 0;
                    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))
                };
            }
            Ok(got)
        }

        fn send_batch(
            &mut self,
            sock: &UdpSocket,
            arena: &mut PacketArena,
            n: usize,
        ) -> io::Result<()> {
            let slot = arena.slot;
            let mut count = 0usize;
            for i in 0..n.min(self.batch).min(arena.batch) {
                let len = arena.send_lens[i];
                if len == 0 {
                    continue;
                }
                self.iovecs[count] = IoVec {
                    base: arena.send_bufs[i * slot..].as_mut_ptr(),
                    len,
                };
                self.addrs[count] = SockAddrIn::from_peer(arena.peers[i]);
                self.hdrs[count] = MmsgHdr {
                    hdr: MsgHdr {
                        name: &mut self.addrs[count],
                        namelen: std::mem::size_of::<SockAddrIn>() as u32,
                        iov: &mut self.iovecs[count],
                        iovlen: 1,
                        control: std::ptr::null_mut(),
                        controllen: 0,
                        flags: 0,
                    },
                    len: 0,
                };
                count += 1;
            }
            let mut sent = 0usize;
            while sent < count {
                // SAFETY: same lifetimes as recv_batch; `sent` stays in
                // bounds because the kernel returns at most `count - sent`.
                let r = unsafe {
                    syscall5(
                        SYS_SENDMMSG,
                        sock.as_raw_fd() as usize,
                        self.hdrs.as_mut_ptr().wrapping_add(sent) as usize,
                        count - sent,
                        0,
                        0,
                    )
                };
                if r < 0 {
                    if -r as i32 == EINTR {
                        continue;
                    }
                    return Err(io::Error::from_raw_os_error(-r as i32));
                }
                if r == 0 {
                    break;
                }
                sent += (r as usize).min(count - sent);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let b = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        a.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    fn roundtrip_with(mut io: Box<dyn BatchIo>, batch: usize) {
        let (a, b, aa, ba) = pair();
        let mut arena = PacketArena::new(batch, 2048);

        // a → b: five distinct datagrams via plain send_to.
        let msgs: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 10 + usize::from(i)]).collect();
        for m in &msgs {
            a.send_to(m, ba).unwrap();
        }
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < msgs.len() {
            let n = io.recv_batch(&b, &mut arena).expect("datagrams arrive");
            assert!(n >= 1 && n <= arena.batch());
            for i in 0..n {
                assert_eq!(arena.peer(i), aa, "source address is recorded");
                got.push(arena.packet(i).to_vec());
                // Echo straight back through the send side of the arena.
                let (recv, send, _) = arena.io_slot(i);
                let len = recv.len();
                send[..len].copy_from_slice(recv);
                arena.set_response_len(i, len);
            }
            io.send_batch(&b, &mut arena, n).unwrap();
        }
        got.sort();
        let mut want = msgs.clone();
        want.sort();
        assert_eq!(got, want, "batched receive sees every datagram intact");

        // The echoes all come back to a.
        let mut buf = [0u8; 2048];
        let mut echoed: Vec<Vec<u8>> = Vec::new();
        for _ in 0..msgs.len() {
            let (n, from) = a.recv_from(&mut buf).expect("echo arrives");
            assert_eq!(from, ba);
            echoed.push(buf[..n].to_vec());
        }
        echoed.sort();
        assert_eq!(echoed, want);

        // A quiet socket surfaces the read timeout, not a hang.
        let err = io.recv_batch(&b, &mut arena).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "quiet socket: {err:?}"
        );
    }

    #[test]
    fn one_packet_fallback_round_trips() {
        roundtrip_with(Box::new(OnePacketIo), 4);
    }

    #[test]
    fn default_io_round_trips_batched() {
        roundtrip_with(batch_io(8), 8);
    }

    #[test]
    fn batch_of_one_selects_the_fallback() {
        // batch_io(1) must never pick the mmsg path (the portable contract
        // the `batched_and_fallback` loopback test pins on the wire);
        // behaviorally they agree.
        roundtrip_with(batch_io(1), 1);
    }

    #[test]
    fn empty_send_slots_are_skipped() {
        let (a, b, _aa, ba) = pair();
        let mut io = batch_io(4);
        let mut arena = PacketArena::new(4, 1024);
        arena.set_outgoing(0, b"first", ba);
        arena.set_response_len(1, 0); // hole in the middle
        arena.set_outgoing(2, b"third", ba);
        arena.peers[1] = ba;
        io.send_batch(&a, &mut arena, 3).unwrap();
        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        for _ in 0..2 {
            let (n, _) = b.recv_from(&mut buf).unwrap();
            got.push(buf[..n].to_vec());
        }
        got.sort();
        assert_eq!(got, vec![b"first".to_vec(), b"third".to_vec()]);
        assert!(b.recv_from(&mut buf).is_err(), "the hole was not sent");
    }

    #[test]
    fn arena_outgoing_and_slots() {
        let mut arena = PacketArena::new(2, 600);
        assert_eq!(arena.batch(), 2);
        assert!(arena.slot >= 600);
        let dst = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 5353));
        arena.set_outgoing(1, &[9u8; 600], dst);
        assert_eq!(arena.send_lens[1], 600);
        assert_eq!(arena.peer(1), dst);
    }
}
