package ftpx

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func startServer(t *testing.T, user, pass string) *Server {
	t.Helper()
	srv := &Server{Store: NewMemStore(), User: user, Pass: pass}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestStoreRetrieveListDelete(t *testing.T) {
	srv := startServer(t, "", "")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	if err := c.Login("", ""); err != nil {
		t.Fatal(err)
	}
	payload := []byte("zip-bytes-here")
	if err := c.Store("job-1.zip", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("job-2.zip", []byte("other")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Retrieve("job-1.zip")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("retrieved %q", got)
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "job-1.zip,job-2.zip" {
		t.Fatalf("list = %v", names)
	}
}

func TestAuthentication(t *testing.T) {
	srv := startServer(t, "chronos", "secret")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	// Wrong password.
	if err := c.Login("chronos", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
	// File ops before login are refused.
	if err := c.Store("x", []byte("y")); err == nil {
		t.Fatal("unauthenticated STOR accepted")
	}
	// Correct login on the same session.
	if err := c.Login("chronos", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	srv := startServer(t, "", "")
	c, _ := Dial(srv.Addr())
	defer c.Quit()
	c.Login("", "")
	c.Store("f", []byte("one"))
	c.Store("f", []byte("two"))
	got, err := c.Retrieve("f")
	if err != nil || string(got) != "two" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestUnknownCommand(t *testing.T) {
	srv := startServer(t, "", "")
	c, _ := Dial(srv.Addr())
	defer c.Quit()
	code, _, err := c.cmd("MKD somedir")
	if err != nil {
		t.Fatal(err)
	}
	if code != 502 {
		t.Fatalf("MKD -> %d", code)
	}
	// Session survives unknown commands.
	if err := c.Login("", ""); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv := startServer(t, "", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Quit()
			if err := c.Login("", ""); err != nil {
				t.Errorf("login: %v", err)
				return
			}
			name := fmt.Sprintf("file-%d", i)
			if err := c.Store(name, []byte(name)); err != nil {
				t.Errorf("store: %v", err)
				return
			}
			got, err := c.Retrieve(name)
			if err != nil || string(got) != name {
				t.Errorf("retrieve: %q %v", got, err)
			}
		}(i)
	}
	wg.Wait()
	names, _ := srv.Store.List()
	if len(names) != 8 {
		t.Fatalf("stored %d files", len(names))
	}
}

// TestRoundTripProperty: arbitrary binary payloads survive STOR/RETR.
func TestRoundTripProperty(t *testing.T) {
	srv := startServer(t, "", "")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	c.Login("", "")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		payload := make([]byte, r.Intn(64<<10))
		r.Read(payload)
		name := fmt.Sprintf("blob-%d", seed)
		if err := c.Store(name, payload); err != nil {
			t.Logf("store: %v", err)
			return false
		}
		got, err := c.Retrieve(name)
		if err != nil {
			t.Logf("retrieve: %v", err)
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestArchiveStoreAdapter(t *testing.T) {
	srv := startServer(t, "agent", "pw")
	as := &ArchiveStore{Addr: srv.Addr(), User: "agent", Pass: "pw"}
	ref, err := as.Store("job-000000007", []byte("archive-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	want := "ftp://" + srv.Addr() + "/job-000000007.zip"
	if ref != want {
		t.Fatalf("ref = %q, want %q", ref, want)
	}
	// The file landed on the server.
	got, err := srv.Store.Get("job-000000007.zip")
	if err != nil || string(got) != "archive-bytes" {
		t.Fatalf("server content = %q, %v", got, err)
	}
	// Bad credentials propagate.
	bad := &ArchiveStore{Addr: srv.Addr(), User: "agent", Pass: "nope"}
	if _, err := bad.Store("job-1", []byte("x")); err == nil {
		t.Fatal("bad credentials accepted")
	}
}
