//go:build linux && (amd64 || arm64)

package udpengine

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// The Linux fast path: recvmmsg pulls a vector of datagrams per
// syscall, the handler runs over each slot reusing the slot's buffers,
// and sendmmsg pushes the whole response vector back out. At small
// message sizes the syscall boundary dominates per-packet cost, so
// moving M messages per crossing amortizes it ~M-fold; this is the
// same structure BIND and Knot use via libuv/epoll worker loops.
//
// Restricted to 64-bit ports (amd64, arm64) because mmsghdr embeds
// syscall.Msghdr, whose layout — and therefore the trailing pad that
// keeps the array stride at the kernel's expectation — differs on
// 32-bit ABIs. Other Linux ports fall back to the portable loop.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the per-message byte
// count the kernel fills in. On LP64 the struct is padded to 64 bytes.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

const (
	batchIOSupported = true
	// rsaSize is the sockaddr storage per slot, large enough for IPv6.
	rsaSize = syscall.SizeofSockaddrInet6
	// ctrlSize holds one cmsghdr + a uint32 SO_RXQ_OVFL counter.
	ctrlSize = syscall.SizeofCmsghdr + 8
)

// mmsgIO is one worker's vector transport state. Everything is
// allocated once: rx/tx buffers, sockaddr and control storage, the two
// mmsghdr arrays, and the callbacks RawConn.Read and Write run, bound to
// the worker with fields for what they report, all live for the
// worker's lifetime, so the steady state allocates nothing.
type mmsgIO struct {
	uconn *net.UDPConn
	rc    syscall.RawConn

	batch int
	rx    [][]byte
	tx    [][]byte
	rsa   []byte // batch * rsaSize sockaddr slots, shared rx→tx
	ctrl  []byte // batch * ctrlSize cmsg slots
	riov  []syscall.Iovec
	tiov  []syscall.Iovec
	rhdr  []mmsghdr
	thdr  []mmsghdr

	// recvmmsg and sendmmsg are recvBatch and sendBatch bound once, and
	// the fields after each are what they report: closures made per call,
	// and the variables they captured, were seven allocations a batch.
	recvmmsg func(fd uintptr) bool
	received int
	recvErr  error
	sendmmsg func(fd uintptr) bool
	// sendBatch sends thdr[sent:queued].
	queued, sent, delivered, failed int
}

func newWorkerIO(conn net.PacketConn, batch, maxPacket int) workerIO {
	uconn, ok := conn.(*net.UDPConn)
	if !ok || batch <= 1 {
		return newPortableIO(conn, maxPacket)
	}
	rc, err := uconn.SyscallConn()
	if err != nil {
		return newPortableIO(conn, maxPacket)
	}
	// Drop accounting for pre-opened sockets too (engine-opened
	// reuseport listeners already set this in their Control hook).
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soRxqOvfl, 1)
	})
	io := &mmsgIO{uconn: uconn, rc: rc, batch: batch}
	io.recvmmsg, io.sendmmsg = io.recvBatch, io.sendBatch
	io.rx = make([][]byte, batch)
	io.tx = make([][]byte, batch)
	io.rsa = make([]byte, batch*rsaSize)
	io.ctrl = make([]byte, batch*ctrlSize)
	io.riov = make([]syscall.Iovec, batch)
	io.tiov = make([]syscall.Iovec, batch)
	io.rhdr = make([]mmsghdr, batch)
	io.thdr = make([]mmsghdr, batch)
	for i := 0; i < batch; i++ {
		io.rx[i] = make([]byte, maxPacket)
		io.tx[i] = make([]byte, 0, maxPacket)
		io.riov[i] = syscall.Iovec{Base: &io.rx[i][0]}
		io.riov[i].SetLen(maxPacket)
		h := &io.rhdr[i].hdr
		h.Name = &io.rsa[i*rsaSize]
		h.Iov = &io.riov[i]
		h.Iovlen = 1
		h.Control = &io.ctrl[i*ctrlSize]
	}
	return io
}

func (m *mmsgIO) serve(w *worker, h Handler) error {
	for {
		n, err := m.recv()
		if err != nil {
			return err
		}
		w.reads.Add(1)
		w.packets.Add(int64(n))

		// Serve each received slot; responses go into the tx vector,
		// reusing the rx slot's sockaddr for the return path.
		sendCount := 0
		for i := 0; i < n; i++ {
			got := int(m.rhdr[i].n)
			if got > len(m.rx[i]) {
				got = len(m.rx[i]) // truncated datagram
			}
			m.harvestRxqDrops(w, i)
			peer := Peer{Addr: m.peerAddr(i), uconn: m.uconn, w: w}
			resp := h.ServeDatagram(m.rx[i][:got], peer, m.tx[i][:0])
			if len(resp) == 0 {
				w.dropped.Add(1)
				continue
			}
			m.tx[i] = resp[:0] // adopt a possibly-grown buffer
			j := sendCount
			m.tiov[j].Base = &resp[0]
			m.tiov[j].SetLen(len(resp))
			th := &m.thdr[j].hdr
			th.Name = m.rhdr[i].hdr.Name
			th.Namelen = m.rhdr[i].hdr.Namelen
			th.Iov = &m.tiov[j]
			th.Iovlen = 1
			th.Control = nil
			th.Controllen = 0
			sendCount++
		}
		if sendCount == 0 {
			continue
		}
		delivered, failed, err := m.send(sendCount)
		w.writes.Add(int64(delivered))
		w.writeErrs.Add(int64(failed))
		if err != nil {
			w.writeErrs.Add(int64(sendCount - delivered - failed))
			return err
		}
	}
}

// recv blocks until at least one datagram arrives, then drains up to
// batch messages in one recvmmsg call.
func (m *mmsgIO) recv() (int, error) {
	m.received, m.recvErr = 0, nil
	if err := m.rc.Read(m.recvmmsg); err != nil {
		return 0, err
	}
	return m.received, m.recvErr
}

// recvBatch is recv's RawConn.Read callback.
func (m *mmsgIO) recvBatch(fd uintptr) bool {
	for i := range m.rhdr {
		// Reset the kernel-written lengths before each call.
		m.rhdr[i].hdr.Namelen = rsaSize
		m.rhdr[i].hdr.SetControllen(ctrlSize)
		m.rhdr[i].hdr.Flags = 0
		m.rhdr[i].n = 0
	}
	r1, _, errno := syscall.Syscall6(sysRECVMMSG,
		fd, uintptr(unsafe.Pointer(&m.rhdr[0])), uintptr(len(m.rhdr)),
		syscall.MSG_DONTWAIT, 0, 0)
	if errno == syscall.EAGAIN {
		return false // park on the poller until readable
	}
	if errno != 0 {
		m.recvErr = errno
		return true
	}
	m.received = int(r1)
	return true
}

// send pushes count queued responses with sendmmsg, retrying the
// unsent tail across writability waits. A per-destination error (e.g.
// a vanished peer) fails only the message at the head of the vector;
// the rest still go out.
func (m *mmsgIO) send(count int) (delivered, failed int, err error) {
	m.queued, m.sent, m.delivered, m.failed = count, 0, 0, 0
	err = m.rc.Write(m.sendmmsg)
	return m.delivered, m.failed, err
}

// sendBatch is send's RawConn.Write callback.
func (m *mmsgIO) sendBatch(fd uintptr) bool {
	for m.sent < m.queued {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG,
			fd, uintptr(unsafe.Pointer(&m.thdr[m.sent])), uintptr(m.queued-m.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for writability, then resume
		}
		if errno != 0 {
			m.sent++
			m.failed++
			continue
		}
		m.sent += int(r1)
		m.delivered += int(r1)
	}
	return true
}

// peerAddr decodes slot i's sockaddr without allocating.
func (m *mmsgIO) peerAddr(i int) netip.AddrPort {
	b := m.rsa[i*rsaSize:]
	family := binary.LittleEndian.Uint16(b) // sa_family_t is host-order; Linux LP64 ports here are LE
	switch family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&b[0]))
		port := uint16(b[2])<<8 | uint16(b[3]) // sin_port is big-endian on the wire
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&b[0]))
		port := uint16(b[2])<<8 | uint16(b[3])
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}

// harvestRxqDrops parses slot i's control messages for the SO_RXQ_OVFL
// cumulative drop counter and records the high-water mark.
func (m *mmsgIO) harvestRxqDrops(w *worker, i int) {
	clen := int(m.rhdr[i].hdr.Controllen)
	if clen < syscall.SizeofCmsghdr {
		return
	}
	b := m.ctrl[i*ctrlSize : i*ctrlSize+clen]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	if cm.Level != syscall.SOL_SOCKET || cm.Type != soRxqOvfl ||
		int(cm.Len) < syscall.SizeofCmsghdr+4 {
		return
	}
	drops := int64(binary.LittleEndian.Uint32(b[syscall.SizeofCmsghdr:]))
	// The kernel counter is cumulative per socket; keep the max seen.
	for {
		cur := w.rxqDrops.Load()
		if drops <= cur || w.rxqDrops.CompareAndSwap(cur, drops) {
			return
		}
	}
}
