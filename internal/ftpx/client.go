package ftpx

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal passive-mode FTP client.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	host string
}

// Dial connects to the server's control port.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	host, _, _ := net.SplitHostPort(addr)
	c := &Client{conn: conn, r: bufio.NewReader(conn), host: host}
	if _, _, err := c.readReply(); err != nil { // 220 greeting
		conn.Close()
		return nil, err
	}
	return c, nil
}

// readReply parses one "NNN message" control line.
func (c *Client) readReply() (int, string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if len(line) < 4 {
		return 0, "", fmt.Errorf("ftpx: short reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("ftpx: bad reply %q", line)
	}
	return code, line[4:], nil
}

// cmd sends one command and returns the reply.
func (c *Client) cmd(format string, args ...any) (int, string, error) {
	fmt.Fprintf(c.conn, format+"\r\n", args...)
	return c.readReply()
}

// expect sends a command and verifies the reply code.
func (c *Client) expect(wantCode int, format string, args ...any) (string, error) {
	code, msg, err := c.cmd(format, args...)
	if err != nil {
		return "", err
	}
	if code != wantCode {
		return "", fmt.Errorf("ftpx: %s -> %d %s", fmt.Sprintf(format, args...), code, msg)
	}
	return msg, nil
}

// Login authenticates; pass empty strings for anonymous access.
func (c *Client) Login(user, pass string) error {
	if user == "" {
		user = "anonymous"
	}
	code, _, err := c.cmd("USER %s", user)
	if err != nil {
		return err
	}
	switch code {
	case 230:
		return nil
	case 331:
		_, err := c.expect(230, "PASS %s", pass)
		return err
	default:
		return fmt.Errorf("ftpx: USER rejected with %d", code)
	}
}

// pasv opens the passive data connection.
func (c *Client) pasv() (net.Conn, error) {
	msg, err := c.expect(227, "PASV")
	if err != nil {
		return nil, err
	}
	// Parse "(h1,h2,h3,h4,p1,p2)".
	open := strings.IndexByte(msg, '(')
	closing := strings.IndexByte(msg, ')')
	if open < 0 || closing < open {
		return nil, fmt.Errorf("ftpx: bad PASV reply %q", msg)
	}
	parts := strings.Split(msg[open+1:closing], ",")
	if len(parts) != 6 {
		return nil, fmt.Errorf("ftpx: bad PASV host %q", msg)
	}
	p1, err1 := strconv.Atoi(parts[4])
	p2, err2 := strconv.Atoi(parts[5])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("ftpx: bad PASV port %q", msg)
	}
	host := strings.Join(parts[:4], ".")
	return net.DialTimeout("tcp", fmt.Sprintf("%s:%d", host, p1*256+p2), 10*time.Second)
}

// Store uploads data under the given name.
func (c *Client) Store(name string, data []byte) error {
	dc, err := c.pasv()
	if err != nil {
		return err
	}
	if _, err := c.expect(150, "STOR %s", name); err != nil {
		dc.Close()
		return err
	}
	if _, err := dc.Write(data); err != nil {
		dc.Close()
		return err
	}
	dc.Close()
	code, msg, err := c.readReply()
	if err != nil {
		return err
	}
	if code != 226 {
		return fmt.Errorf("ftpx: STOR failed: %d %s", code, msg)
	}
	return nil
}

// Retrieve downloads the named file.
func (c *Client) Retrieve(name string) ([]byte, error) {
	dc, err := c.pasv()
	if err != nil {
		return nil, err
	}
	if _, err := c.expect(150, "RETR %s", name); err != nil {
		dc.Close()
		return nil, err
	}
	data, err := io.ReadAll(dc)
	dc.Close()
	if err != nil {
		return nil, err
	}
	code, msg, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if code != 226 {
		return nil, fmt.Errorf("ftpx: RETR failed: %d %s", code, msg)
	}
	return data, nil
}

// List returns the server's file names.
func (c *Client) List() ([]string, error) {
	dc, err := c.pasv()
	if err != nil {
		return nil, err
	}
	if _, err := c.expect(150, "LIST"); err != nil {
		dc.Close()
		return nil, err
	}
	data, err := io.ReadAll(dc)
	dc.Close()
	if err != nil {
		return nil, err
	}
	if _, _, err := c.readReply(); err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\r\n") {
		if line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// Quit ends the session.
func (c *Client) Quit() error {
	c.cmd("QUIT")
	return c.conn.Close()
}

// ArchiveStore adapts an FTP target to the agent.ArchiveStore interface:
// result archives are uploaded as <jobID>.zip and referenced by an
// ftp:// URL in the result JSON.
type ArchiveStore struct {
	// Addr is the FTP server's control address.
	Addr string
	// User and Pass are the credentials (empty = anonymous).
	User, Pass string
}

// Store implements agent.ArchiveStore by uploading via a short-lived
// session per archive (agents upload rarely; connection reuse is not
// worth the state).
func (a *ArchiveStore) Store(jobID string, archive []byte) (string, error) {
	c, err := Dial(a.Addr)
	if err != nil {
		return "", err
	}
	defer c.Quit()
	if err := c.Login(a.User, a.Pass); err != nil {
		return "", err
	}
	name := jobID + ".zip"
	if err := c.Store(name, archive); err != nil {
		return "", err
	}
	return "ftp://" + a.Addr + "/" + name, nil
}
