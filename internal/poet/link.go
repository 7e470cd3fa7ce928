package poet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/pool"
)

// Wire client sessions. Reporter, MonitorClient, Replicator and
// ShardFollower are clients of one link shape: dial an endpoint, send a
// hello, read the helloAck, run a role-specific stream until the
// connection dies, then redial through an endpoint pool. The shape is
// written once here — linkCfg holds the settings every role shares,
// handshake is the one hello/helloAck exchange, and redial is the one
// loop that paces handshakes over a pool. Each role supplies its hello
// and what it does with an established link.

// linkCfg holds the settings every wire client shares; each role's
// config struct embeds it.
type linkCfg struct {
	// reconnectBudget bounds the cumulative backoff slept per outage.
	reconnectBudget time.Duration
	backoffBase     time.Duration
	backoffMax      time.Duration
	// peerTimeout is how long the client waits for any frame before
	// declaring the connection dead (floored for the handshake).
	peerTimeout time.Duration
	logf        func(string, ...any)
}

func defaultLinkCfg() linkCfg {
	return linkCfg{
		reconnectBudget: defaultReconnectBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		peerTimeout:     defaultPeerTimeout,
		logf:            func(string, ...any) {},
	}
}

func (c *linkCfg) setLog(logf func(string, ...any)) {
	if logf != nil {
		c.logf = logf
	}
}

func (c *linkCfg) newPool(addrs []string) *pool.Pool {
	return pool.New(addrs, c.backoffBase, c.backoffMax)
}

// link is one established client session.
type link struct {
	conn net.Conn
	addr string
	fw   *frameWriter
	dec  *gob.Decoder
	ack  helloAck
}

// handshake dials addr, sends h and reads the helloAck, which ackErr
// sorts. Every hello advertises DeltaVC: delta encoding is the only
// timestamp spelling on the wire.
//
// The ack read runs under a floored deadline: peerTimeout may be tuned
// to tens of milliseconds for fast liveness detection, but the one-shot
// exchange over a slow link should not inherit that — a redial loop
// that times out every handshake never recovers.
func (c *linkCfg) handshake(addr string, h hello, stats *frameStats) (*link, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	h.Magic, h.DeltaVC = wireMagic, true
	fw := newFrameWriter(conn, nil, defaultWriteTimeout, stats)
	if err := fw.Send(&h); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	_ = conn.SetReadDeadline(time.Now().Add(max(c.peerTimeout, minHandshakeTimeout)))
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	if err := ackErr(ack, h.Role); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return &link{conn: conn, addr: addr, fw: fw, dec: dec, ack: ack}, nil
}

// ackErr sorts a helloAck for a session of the given role: nil when the
// session may proceed; a "session deferred" error for a retriable
// refusal (standby awaiting promotion, draining server), which the pool
// rotates past; an ErrSessionRejected wrap for a terminal one. An OK
// ack that does not confirm delta timestamps comes from a server that
// would send full vectors, so it is refused for every role that
// receives timestamps.
func ackErr(ack helloAck, role string) error {
	switch {
	case ack.OK && (ack.DeltaVC || role == roleTarget):
		return nil
	case ack.OK:
		return fmt.Errorf("%w: server does not confirm delta-encoded timestamps", ErrSessionRejected)
	case ack.Retry:
		return fmt.Errorf("session deferred: %s", ack.Error)
	default:
		return fmt.Errorf("%w: %s", ErrSessionRejected, ack.Error)
	}
}

// redial establishes a session over eps, following the pool's verdict
// after each failed handshake: rotate to a healthy peer at once, sleep
// the shared backoff only once a whole round has failed. It stops when
// a handshake succeeds, stop closes (ErrClientClosed), a refusal is
// terminal (the ErrSessionRejected wrap: another endpoint cannot make
// it wrong), or the next sleep would take the total past budget (an
// error naming every endpoint's last failure). A zero budget is one
// round without sleeping: the synchronous first dial that makes a fully
// unreachable service fail fast. mkHello builds each attempt's hello,
// so it carries the role's state at that moment.
func (c *linkCfg) redial(eps *pool.Pool, budget time.Duration, stop <-chan struct{}, mkHello func() hello, stats *frameStats) (*link, error) {
	var slept time.Duration
	for {
		select {
		case <-stop:
			return nil, ErrClientClosed
		default:
		}
		addr := eps.Pick()
		l, err := c.handshake(addr, mkHello(), stats)
		if err == nil {
			eps.Success(addr)
			return l, nil
		}
		if errors.Is(err, ErrSessionRejected) {
			return nil, err
		}
		d := eps.Fail(addr, err)
		if slept+d > budget {
			if budget == 0 {
				return nil, eps.ErrorSummary()
			}
			return nil, fmt.Errorf("reconnect budget %v exhausted: %w", budget, eps.ErrorSummary())
		}
		slept += d
		if !backoff.Sleep(d, stop) {
			return nil, ErrClientClosed
		}
	}
}
