package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

// Sentinel errors of the service layer.
var (
	// ErrNotFound means the referenced entity does not exist.
	ErrNotFound = errors.New("core: not found")
	// ErrArchived means the operation targets an archived entity.
	ErrArchived = errors.New("core: entity is archived")
	// ErrInvalidTransition means the job state machine forbids the change.
	ErrInvalidTransition = errors.New("core: invalid job transition")
	// ErrInactiveDeployment means an agent asked for work on a disabled
	// deployment.
	ErrInactiveDeployment = errors.New("core: deployment inactive")
)

// Service is the Chronos Control application core: every REST endpoint
// and UI action maps to one method here. All methods are safe for
// concurrent use; each runs in its own storage transaction.
type Service struct {
	store *Store
	clock func() time.Time

	// HeartbeatTimeout is how long a running job may go without an agent
	// heartbeat before the watchdog declares it failed.
	HeartbeatTimeout time.Duration
	// DefaultMaxAttempts bounds automatic re-scheduling when an
	// experiment does not set its own limit.
	DefaultMaxAttempts int

	// met carries pre-resolved instrumentation handles (nil until
	// SetMetrics: instrumentation off).
	met *svcMetrics
}

// NewService builds a Service on the given database. clock may be nil for
// wall time; tests inject a manual clock. Over a read-only replication
// follower's store every mutating method fails with relstore.ErrReadOnly:
// writes belong on the leader.
func NewService(db *relstore.DB, clock func() time.Time) (*Service, error) {
	store, err := NewStore(db)
	if err != nil {
		return nil, err
	}
	if clock == nil {
		clock = time.Now
	}
	return &Service{
		store:              store,
		clock:              clock,
		HeartbeatTimeout:   30 * time.Second,
		DefaultMaxAttempts: 3,
	}, nil
}

// Store exposes the persistence layer (used by the archive exporter).
func (s *Service) Store() *Store { return s.store }

// now returns the current service time in UTC.
func (s *Service) now() time.Time { return nowUTC(s.clock) }

// mapNotFound converts relstore.ErrNotFound into the service sentinel.
func mapNotFound(err error) error {
	if errors.Is(err, relstore.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

// paddedID formats sequence numbers so lexicographic order equals
// creation order, which the job queue and event timeline rely on.
// Built by hand: it runs twice per claim, and fmt.Sprintf costs two
// extra allocations (argument boxing and formatter state) per call.
func paddedID(prefix string, n int64) string {
	b := make([]byte, 0, len(prefix)+21)
	b = append(b, prefix...)
	b = append(b, '-')
	digits := 1
	for v := n; v >= 10; v /= 10 {
		digits++
	}
	for i := digits; i < 9; i++ {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, n, 10)
	return string(b)
}

// --- Users ---

// CreateUser registers a new user account.
func (s *Service) CreateUser(name string, role Role) (*User, error) {
	if name == "" {
		return nil, fmt.Errorf("core: user needs a name")
	}
	if !ValidRole(role) {
		return nil, fmt.Errorf("core: unknown role %q", role)
	}
	var u *User
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		if _, err := s.store.FindUserByName(tx, name); err == nil {
			return fmt.Errorf("core: user %q already exists", name)
		}
		n, err := tx.NextSeq(tableUsers)
		if err != nil {
			return err
		}
		u = &User{ID: paddedID("user", n), Name: name, Role: role, Created: s.now()}
		return s.store.PutUser(tx, u)
	})
	return u, err
}

// GetUser returns the user with the given id.
func (s *Service) GetUser(id string) (*User, error) {
	var u *User
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		u, err = s.store.GetUser(tx, id)
		return mapNotFound(err)
	})
	return u, err
}

// ListUsers returns all users.
func (s *Service) ListUsers() ([]*User, error) {
	return readRows(s.store.db, s.store.ListUsers)
}

// --- Projects ---

// CreateProject creates a project owned by ownerID.
func (s *Service) CreateProject(name, description, ownerID string, memberIDs []string) (*Project, error) {
	if name == "" {
		return nil, fmt.Errorf("core: project needs a name")
	}
	var p *Project
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		if _, err := s.store.GetUser(tx, ownerID); err != nil {
			return fmt.Errorf("core: owner %q: %w", ownerID, mapNotFound(err))
		}
		for _, m := range memberIDs {
			if _, err := s.store.GetUser(tx, m); err != nil {
				return fmt.Errorf("core: member %q: %w", m, mapNotFound(err))
			}
		}
		n, err := tx.NextSeq(tableProjects)
		if err != nil {
			return err
		}
		p = &Project{
			ID: paddedID("project", n), Name: name, Description: description,
			OwnerID: ownerID, MemberIDs: memberIDs, Created: s.now(),
		}
		return s.store.PutProject(tx, p)
	})
	return p, err
}

// GetProject returns the project with the given id.
func (s *Service) GetProject(id string) (*Project, error) {
	var p *Project
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		p, err = s.store.GetProject(tx, id)
		return mapNotFound(err)
	})
	return p, err
}

// ListProjects returns all projects.
func (s *Service) ListProjects() ([]*Project, error) {
	return readRows(s.store.db, s.store.ListProjects)
}

// ArchiveProject marks a project (and implicitly its evaluation settings
// and results) as persistent and read-only (paper §2.1, requirement iv).
func (s *Service) ArchiveProject(id string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		p, err := s.store.GetProject(tx, id)
		if err != nil {
			return mapNotFound(err)
		}
		p.Archived = true
		return s.store.PutProject(tx, p)
	})
}

// AddProjectMember adds a user to a project.
func (s *Service) AddProjectMember(projectID, userID string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		p, err := s.store.GetProject(tx, projectID)
		if err != nil {
			return mapNotFound(err)
		}
		if p.Archived {
			return ErrArchived
		}
		if _, err := s.store.GetUser(tx, userID); err != nil {
			return mapNotFound(err)
		}
		if p.HasMember(userID) {
			return nil
		}
		p.MemberIDs = append(p.MemberIDs, userID)
		return s.store.PutProject(tx, p)
	})
}

// --- Systems ---

// RegisterSystem declares a System under Evaluation: its parameters and
// result diagrams (paper Fig. 2 workflow).
func (s *Service) RegisterSystem(name, description string, defs []params.Definition, diagrams []DiagramSpec) (*System, error) {
	if name == "" {
		return nil, fmt.Errorf("core: system needs a name")
	}
	seen := map[string]bool{}
	for i := range defs {
		if err := defs[i].Check(); err != nil {
			return nil, err
		}
		if seen[defs[i].Name] {
			return nil, fmt.Errorf("core: duplicate parameter %q", defs[i].Name)
		}
		seen[defs[i].Name] = true
	}
	for _, d := range diagrams {
		if d.Type == "" || d.Metric == "" {
			return nil, fmt.Errorf("core: diagram needs type and metric")
		}
	}
	var sys *System
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		n, err := tx.NextSeq(tableSystems)
		if err != nil {
			return err
		}
		sys = &System{
			ID: paddedID("system", n), Name: name, Description: description,
			Parameters: defs, Diagrams: diagrams, Created: s.now(),
		}
		return s.store.PutSystem(tx, sys)
	})
	return sys, err
}

// SetSystemSource records the extension-repository provenance of a
// system (paper: systems can be registered "by providing a path to a git
// or mercurial repository").
func (s *Service) SetSystemSource(systemID, source string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		sys, err := s.store.GetSystem(tx, systemID)
		if err != nil {
			return mapNotFound(err)
		}
		sys.Source = source
		return s.store.PutSystem(tx, sys)
	})
}

// GetSystem returns the system with the given id.
func (s *Service) GetSystem(id string) (*System, error) {
	var sys *System
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		sys, err = s.store.GetSystem(tx, id)
		return mapNotFound(err)
	})
	return sys, err
}

// ListSystems returns all registered systems.
func (s *Service) ListSystems() ([]*System, error) {
	return readRows(s.store.db, s.store.ListSystems)
}

// --- Deployments ---

// CreateDeployment registers an instance of a system in an environment.
func (s *Service) CreateDeployment(systemID, name, environment, version string) (*Deployment, error) {
	var d *Deployment
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		if _, err := s.store.GetSystem(tx, systemID); err != nil {
			return fmt.Errorf("core: system %q: %w", systemID, mapNotFound(err))
		}
		n, err := tx.NextSeq(tableDeployments)
		if err != nil {
			return err
		}
		d = &Deployment{
			ID: paddedID("deployment", n), SystemID: systemID, Name: name,
			Environment: environment, Version: version, Active: true, Created: s.now(),
		}
		return s.store.PutDeployment(tx, d)
	})
	return d, err
}

// SetDeploymentActive enables or disables a deployment for scheduling.
func (s *Service) SetDeploymentActive(id string, active bool) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		d, err := s.store.GetDeployment(tx, id)
		if err != nil {
			return mapNotFound(err)
		}
		d.Active = active
		return s.store.PutDeployment(tx, d)
	})
}

// ListDeployments returns deployments, optionally filtered by system.
func (s *Service) ListDeployments(systemID string) ([]*Deployment, error) {
	return readRows(s.store.db, func(tx *relstore.Tx) (rowsOf[Deployment], error) {
		return s.store.ListDeployments(tx, systemID)
	})
}

// --- Experiments ---

// CreateExperiment defines an evaluation: the parameter settings to sweep
// (paper Fig. 3a). Settings are validated against the system's parameter
// definitions and the expansion cardinality is checked immediately so a
// misconfigured sweep fails at definition time.
func (s *Service) CreateExperiment(projectID, systemID, name, description string, settings map[string][]params.Value, maxAttempts int) (*Experiment, error) {
	if name == "" {
		return nil, fmt.Errorf("core: experiment needs a name")
	}
	if maxAttempts <= 0 {
		maxAttempts = s.DefaultMaxAttempts
	}
	var e *Experiment
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		p, err := s.store.GetProject(tx, projectID)
		if err != nil {
			return fmt.Errorf("core: project %q: %w", projectID, mapNotFound(err))
		}
		if p.Archived {
			return ErrArchived
		}
		sys, err := s.store.GetSystem(tx, systemID)
		if err != nil {
			return fmt.Errorf("core: system %q: %w", systemID, mapNotFound(err))
		}
		if _, err := params.NewSpace(sys.Parameters, settings); err != nil {
			return err
		}
		n, err := tx.NextSeq(tableExperiments)
		if err != nil {
			return err
		}
		e = &Experiment{
			ID: paddedID("experiment", n), ProjectID: projectID, SystemID: systemID,
			Name: name, Description: description, Settings: settings,
			MaxAttempts: maxAttempts, Created: s.now(),
		}
		return s.store.PutExperiment(tx, e)
	})
	return e, err
}

// GetExperiment returns the experiment with the given id.
func (s *Service) GetExperiment(id string) (*Experiment, error) {
	var e *Experiment
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		e, err = s.store.GetExperiment(tx, id)
		return mapNotFound(err)
	})
	return e, err
}

// ListExperiments returns the experiments of a project (all when empty).
func (s *Service) ListExperiments(projectID string) ([]*Experiment, error) {
	return readRows(s.store.db, func(tx *relstore.Tx) (rowsOf[Experiment], error) {
		return s.store.ListExperiments(tx, projectID)
	})
}

// ArchiveExperiment freezes an experiment.
func (s *Service) ArchiveExperiment(id string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		e, err := s.store.GetExperiment(tx, id)
		if err != nil {
			return mapNotFound(err)
		}
		e.Archived = true
		return s.store.PutExperiment(tx, e)
	})
}
