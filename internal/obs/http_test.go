package obs

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestServeCutsSlowRequestHeader is the slowloris regression: a client
// that trickles a request header without ever finishing it must lose its
// connection once ReadHeaderTimeout has passed, not hold it forever.
func TestServeCutsSlowRequestHeader(t *testing.T) {
	t.Parallel()
	srv, addr, err := NewRegistry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := trickleHeader(addr, ReadHeaderTimeout+3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// trickleHeader connects to addr and sends a request header one byte
// every 100ms, never ending it. It returns nil once the server closes the
// connection and an error if the server still holds it after limit.
func trickleHeader(addr string, limit time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: trickle\r\nX-Trickle: "); err != nil {
		return err
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-stopped
	}()
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte("a")); err != nil {
					return
				}
			}
		}
	}()
	if err := conn.SetReadDeadline(time.Now().Add(limit)); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return errors.New("server still holds a connection whose request header never ends")
	}
	return nil
}
