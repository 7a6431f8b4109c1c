package trustnetd

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/obs"
)

// TestServeCutsSlowRequestHeader is the slowloris regression for the
// daemon's port: a client that trickles a request header without ever
// finishing it loses its connection once obs.ReadHeaderTimeout has
// passed, while a keep-alive client that idles just as long between two
// requests keeps its connection.
func TestServeCutsSlowRequestHeader(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{
		DataDir:  filepath.Join(root, "data"),
		CacheDir: filepath.Join(root, "cache"),
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	bound := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, "127.0.0.1:0", func(addr string) { bound <- addr }) }()
	addr := <-bound
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	// The keep-alive client idles past the header timeout concurrently
	// with the trickling one.
	idle := make(chan error, 1)
	go func() { idle <- keepAliveAcrossIdle("http://"+addr+"/metrics", obs.ReadHeaderTimeout+time.Second) }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: trickle\r\nX-Trickle: "); err != nil {
		t.Fatal(err)
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
	if err := conn.SetReadDeadline(time.Now().Add(obs.ReadHeaderTimeout + 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("daemon still holds a connection whose request header never ends")
	}
	if err := <-idle; err != nil {
		t.Fatal(err)
	}
}

// keepAliveAcrossIdle GETs url twice on one client, idling between the
// requests, and reports an error unless the second request reused the
// first one's connection.
func keepAliveAcrossIdle(url string, idle time.Duration) error {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	get := func() (reused bool, err error) {
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", url, nil)
		if err != nil {
			return false, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return reused, err
	}
	if _, err := get(); err != nil {
		return err
	}
	time.Sleep(idle)
	reused, err := get()
	if err != nil {
		return err
	}
	if !reused {
		return errors.New("keep-alive connection was not reused after idling past the header timeout")
	}
	return nil
}
