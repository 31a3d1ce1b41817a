// Package ftpx implements the small slice of RFC 959 (FTP) that the
// Chronos result-upload path needs (paper §2.2: the agent library uploads
// results "via HTTP or FTP. The latter allows to use a different server
// or a NAS for storing the results which also reduces the load and
// storage requirements on the Chronos Control server").
//
// The server speaks passive mode only (PASV) and keeps its files in
// memory: it is the FTP peer the archive upload is tested against. The
// client covers login, STOR, RETR and LIST. Both sides are synchronous and
// safe for concurrent sessions.
package ftpx

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
)

// MemStore is the server's in-memory file store.
type MemStore struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{files: map[string][]byte{}} }

// Put stores a file, replacing any previous content.
func (m *MemStore) Put(name string, data []byte) error {
	m.mu.Lock()
	m.files[name] = append([]byte(nil), data...)
	m.mu.Unlock()
	return nil
}

// Get retrieves a file.
func (m *MemStore) Get(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("ftpx: no such file %q", name)
	}
	return append([]byte(nil), data...), nil
}

// List returns the stored file names, sorted.
func (m *MemStore) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Server is a minimal passive-mode FTP server.
type Server struct {
	// Store holds the uploaded files.
	Store *MemStore
	// User/Pass are the accepted credentials; empty User allows anonymous.
	User, Pass string

	ln     net.Listener
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Listen starts the server on addr (e.g. "127.0.0.1:0") and serves until
// Close.
func (s *Server) Listen(addr string) error {
	if s.Store == nil {
		s.Store = NewMemStore()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound control address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting and waits for sessions to end.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// session is one control connection.
type session struct {
	srv    *Server
	conn   net.Conn
	r      *bufio.Reader
	authed bool
	user   string
	// dataLn is the passive-mode data listener awaiting one connection.
	dataLn net.Listener
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sess := &session{srv: s, conn: conn, r: bufio.NewReader(conn)}
	defer sess.closeData()
	sess.reply(220, "chronos-ftpx ready")
	for {
		line, err := sess.r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		cmd, arg := line, ""
		if i := strings.IndexByte(line, ' '); i >= 0 {
			cmd, arg = line[:i], line[i+1:]
		}
		if !sess.handle(strings.ToUpper(cmd), arg) {
			return
		}
	}
}

func (s *session) reply(code int, msg string) {
	fmt.Fprintf(s.conn, "%d %s\r\n", code, msg)
}

func (s *session) closeData() {
	if s.dataLn != nil {
		s.dataLn.Close()
		s.dataLn = nil
	}
}

// requireAuth gates file commands.
func (s *session) requireAuth() bool {
	if s.authed {
		return true
	}
	s.reply(530, "please login with USER and PASS")
	return false
}

// openData accepts the pending passive connection.
func (s *session) openData() (net.Conn, error) {
	if s.dataLn == nil {
		return nil, fmt.Errorf("no PASV listener")
	}
	defer s.closeData()
	return s.dataLn.Accept()
}

// handle processes one command; returns false to end the session.
func (s *session) handle(cmd, arg string) bool {
	switch cmd {
	case "USER":
		s.user = arg
		if s.srv.User == "" {
			s.authed = true
			s.reply(230, "anonymous access granted")
			return true
		}
		s.reply(331, "password required")
	case "PASS":
		if s.srv.User == "" || (s.user == s.srv.User && arg == s.srv.Pass) {
			s.authed = true
			s.reply(230, "login successful")
		} else {
			s.reply(530, "login incorrect")
		}
	case "SYST":
		s.reply(215, "UNIX Type: L8 (chronos-ftpx)")
	case "TYPE":
		s.reply(200, "type set")
	case "PWD":
		s.reply(257, `"/" is the current directory`)
	case "CWD":
		s.reply(250, "directory unchanged (flat store)")
	case "NOOP":
		s.reply(200, "ok")
	case "PASV":
		if !s.requireAuth() {
			return true
		}
		s.closeData()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.reply(425, "cannot open data port")
			return true
		}
		s.dataLn = ln
		addr := ln.Addr().(*net.TCPAddr)
		ip := addr.IP.To4()
		s.reply(227, fmt.Sprintf("Entering Passive Mode (%d,%d,%d,%d,%d,%d)",
			ip[0], ip[1], ip[2], ip[3], addr.Port/256, addr.Port%256))
	case "STOR":
		if !s.requireAuth() {
			return true
		}
		data, err := s.openData()
		if err != nil {
			s.reply(425, "use PASV first")
			return true
		}
		s.reply(150, "ok to send data")
		content, err := io.ReadAll(data)
		data.Close()
		if err != nil {
			s.reply(451, "transfer failed")
			return true
		}
		if err := s.srv.Store.Put(arg, content); err != nil {
			s.reply(550, err.Error())
			return true
		}
		s.reply(226, "transfer complete")
	case "RETR":
		if !s.requireAuth() {
			return true
		}
		content, err := s.srv.Store.Get(arg)
		if err != nil {
			s.closeData()
			s.reply(550, "file not found")
			return true
		}
		data, err := s.openData()
		if err != nil {
			s.reply(425, "use PASV first")
			return true
		}
		s.reply(150, "opening data connection")
		data.Write(content)
		data.Close()
		s.reply(226, "transfer complete")
	case "LIST", "NLST":
		if !s.requireAuth() {
			return true
		}
		names, err := s.srv.Store.List()
		if err != nil {
			s.closeData()
			s.reply(550, err.Error())
			return true
		}
		data, err := s.openData()
		if err != nil {
			s.reply(425, "use PASV first")
			return true
		}
		s.reply(150, "here comes the directory listing")
		for _, n := range names {
			fmt.Fprintf(data, "%s\r\n", n)
		}
		data.Close()
		s.reply(226, "directory send ok")
	case "QUIT":
		s.reply(221, "goodbye")
		return false
	default:
		s.reply(502, "command not implemented")
	}
	return true
}
