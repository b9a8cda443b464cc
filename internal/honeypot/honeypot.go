// Package honeypot implements the verification step of §7.3.3: the paper
// confirms that the unknown6 cluster performs SSH brute-force by checking
// the senders against a honeypot run on the authors' premises. Here the
// honeypot is a real TCP listener speaking a minimal SSH-like banner
// exchange and counting authentication attempts per source, and a Replayer
// drives cluster members' traffic against it over the loopback. The
// verification logic (attempt thresholds per sender) matches what an
// operator would extract from real honeypot logs.
package honeypot

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/darkvec/darkvec/internal/netutil"
)

// Banner is the server identification line, SSH-2 style.
const Banner = "SSH-2.0-darkvec-honeypot"

// Attempt is one recorded authentication attempt.
type Attempt struct {
	Source   netutil.IPv4
	User     string
	Password string
	At       time.Time
}

// Server is a minimal interactive honeypot. The protocol over each
// connection is line-based:
//
//	S: SSH-2.0-darkvec-honeypot\n
//	C: HELLO <source-ip>\n            (replayer self-identifies; real
//	                                   deployments use the TCP source)
//	C: AUTH <user> <password>\n       (any number of times)
//	S: DENIED\n                       (always — it is a honeypot)
//	C: QUIT\n
//
// Every AUTH line is recorded. The server never grants access.
type Server struct {
	ln net.Listener

	mu       sync.Mutex
	attempts []Attempt
	closed   bool
	wg       sync.WaitGroup
}

// Listen starts the honeypot on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("honeypot: %w", err)
	}
	s := &Server{ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", Banner); err != nil {
		return
	}
	var src netutil.IPv4
	haveSrc := false
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "HELLO":
			if len(fields) == 2 {
				if ip, err := netutil.ParseIPv4(fields[1]); err == nil {
					src, haveSrc = ip, true
				}
			}
		case "AUTH":
			if !haveSrc || len(fields) != 3 {
				continue
			}
			s.mu.Lock()
			if !s.closed {
				s.attempts = append(s.attempts, Attempt{
					Source: src, User: fields[1], Password: fields[2], At: time.Now(),
				})
			}
			s.mu.Unlock()
			if _, err := fmt.Fprintln(conn, "DENIED"); err != nil {
				return
			}
		case "QUIT":
			return
		}
	}
}

// AttemptsBySource aggregates attempt counts per source.
func (s *Server) AttemptsBySource() map[netutil.IPv4]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[netutil.IPv4]int{}
	for _, a := range s.attempts {
		out[a.Source]++
	}
	return out
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// commonCredentials is a slice of the Mirai-style default credential list
// brute-forcers walk through.
var commonCredentials = [][2]string{
	{"root", "root"}, {"root", "admin"}, {"root", "123456"},
	{"admin", "admin"}, {"admin", "password"}, {"root", "xc3511"},
	{"root", "vizxv"}, {"support", "support"}, {"user", "user"},
	{"root", "default"},
}

// Replayer drives suspected brute-forcers against a honeypot: for each
// source, it opens one connection and replays its attempt volume.
type Replayer struct {
	Addr string
	// AttemptsPerSource caps replayed attempts per sender (default 10).
	AttemptsPerSource int
}

// Replay connects once per source and issues attempts[src] AUTH lines
// (capped). The context bounds the whole replay.
func (r Replayer) Replay(ctx context.Context, attempts map[netutil.IPv4]int) error {
	limit := r.AttemptsPerSource
	if limit <= 0 {
		limit = 10
	}
	var d net.Dialer
	for src, n := range attempts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n > limit {
			n = limit
		}
		if err := r.replayOne(ctx, &d, src, n); err != nil {
			return fmt.Errorf("honeypot: replaying %v: %w", src, err)
		}
	}
	return nil
}

func (r Replayer) replayOne(ctx context.Context, d *net.Dialer, src netutil.IPv4, n int) error {
	conn, err := d.DialContext(ctx, "tcp", r.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	banner, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(banner, "SSH-2.0-") {
		return errors.New("unexpected banner")
	}
	if _, err := fmt.Fprintf(conn, "HELLO %s\n", src); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		cred := commonCredentials[i%len(commonCredentials)]
		if _, err := fmt.Fprintf(conn, "AUTH %s %s\n", cred[0], cred[1]); err != nil {
			return err
		}
		resp, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimSpace(resp) != "DENIED" {
			return fmt.Errorf("unexpected response %q", resp)
		}
	}
	_, err = fmt.Fprintln(conn, "QUIT")
	return err
}

// Verdict is the brute-force confirmation for one source.
type Verdict struct {
	Source   netutil.IPv4
	Attempts int
	Confirm  bool
}

// Verify classifies honeypot observations: a source with minAttempts or
// more recorded attempts is confirmed as a brute-forcer — the judgment the
// paper applies to unknown6 using its premises honeypot.
func Verify(bySource map[netutil.IPv4]int, minAttempts int) []Verdict {
	if minAttempts <= 0 {
		minAttempts = 3
	}
	out := make([]Verdict, 0, len(bySource))
	for src, n := range bySource {
		out = append(out, Verdict{Source: src, Attempts: n, Confirm: n >= minAttempts})
	}
	return out
}
