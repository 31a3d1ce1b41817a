package mongosim

import (
	"fmt"
	"sync"
)

// Server is one deployment of the document store: a set of named
// databases sharing a storage engine choice, like a mongod instance
// started with --storageEngine.
type Server struct {
	engineName string
	opts       Options

	mu  sync.Mutex
	dbs map[string]*Database
}

// NewServer creates a deployment using the named storage engine.
func NewServer(engineName string, opts Options) (*Server, error) {
	// Validate the engine name eagerly so deployment configuration errors
	// surface at registration time, not first use.
	if _, err := New(engineName, opts); err != nil {
		return nil, err
	}
	return &Server{engineName: engineName, opts: opts, dbs: make(map[string]*Database)}, nil
}

// Database returns (creating on first use) the named database.
func (s *Server) Database(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[name]
	if !ok {
		db = &Database{server: s, colls: make(map[string]*Collection)}
		s.dbs[name] = db
	}
	return db
}

// Close shuts down all collections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, db := range s.dbs {
		for _, c := range db.colls {
			if err := c.engine.Close(); err != nil {
				return err
			}
		}
	}
	s.dbs = make(map[string]*Database)
	return nil
}

// Database groups collections.
type Database struct {
	server *Server

	mu    sync.Mutex
	colls map[string]*Collection
}

// Collection returns (creating on first use) the named collection.
func (d *Database) Collection(name string) *Collection {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.colls[name]
	if !ok {
		eng, err := New(d.server.engineName, d.server.opts)
		if err != nil {
			// NewServer validated the engine name; reaching here means a
			// programming error, not a user error.
			panic(err)
		}
		c = &Collection{engine: eng}
		d.colls[name] = c
	}
	return c
}

// Collection is a keyed set of documents backed by a storage engine. All
// methods are safe for concurrent use.
type Collection struct {
	engine Engine
}

// ErrNoDocument is returned when a looked-up document does not exist.
var ErrNoDocument = fmt.Errorf("mongosim: no such document")

// ErrDuplicateKey is returned when inserting an existing _id.
var ErrDuplicateKey = fmt.Errorf("mongosim: duplicate key")

// InsertOne stores a new document; it must carry a string _id.
func (c *Collection) InsertOne(doc Document) error {
	id := doc.ID()
	if id == "" {
		return fmt.Errorf("mongosim: document without %s", IDField)
	}
	if err := c.engine.Insert(id, Encode(doc)); err != nil {
		return ErrDuplicateKey
	}
	return nil
}

// ReplaceOne stores the document under its _id, inserting or replacing.
func (c *Collection) ReplaceOne(doc Document) error {
	id := doc.ID()
	if id == "" {
		return fmt.Errorf("mongosim: document without %s", IDField)
	}
	c.engine.Put(id, Encode(doc))
	return nil
}

// FindOne returns the document with the given _id.
func (c *Collection) FindOne(id string) (Document, error) {
	raw, ok := c.engine.Get(id)
	if !ok {
		return nil, ErrNoDocument
	}
	return Decode(raw)
}

// UpdateOne merges the patch fields into the document with the given _id,
// atomically with respect to other writers of the same document. It
// patches the stored encoding: the document is never decoded into a map.
func (c *Collection) UpdateOne(id string, patch Document) error {
	return c.engine.Apply(id, func(old []byte, exists bool) ([]byte, error) {
		if !exists {
			return nil, ErrNoDocument
		}
		return patchEncoded(old, patch)
	})
}

// Scan returns up to limit documents with _id >= start in key order.
func (c *Collection) Scan(start string, limit int) ([]Document, error) {
	kvs := c.engine.Scan(start, limit)
	out := make([]Document, 0, len(kvs))
	for _, kv := range kvs {
		doc, err := Decode(kv.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
	return out, nil
}

// Count returns the number of documents.
func (c *Collection) Count() int { return c.engine.Len() }

// Stats returns the underlying engine statistics.
func (c *Collection) Stats() Stats { return c.engine.Stats() }
