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
	var buf [32]byte
	b := append(buf[:0], prefix...)
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
	return users.create(s.store.db, func(tx *relstore.Tx, id string) (*User, error) {
		if _, err := s.store.FindUserByName(tx, name); err == nil {
			return nil, fmt.Errorf("core: user %q already exists", name)
		}
		return &User{ID: id, Name: name, Role: role, Created: s.now()}, nil
	})
}

// GetUser returns the user with the given id.
func (s *Service) GetUser(id string) (*User, error) { return users.view(s.store.db, id) }

// ListUsers returns all users.
func (s *Service) ListUsers() ([]*User, error) { return users.list(s.store.db, "", "") }

// --- Projects ---

// CreateProject creates a project owned by ownerID.
func (s *Service) CreateProject(name, description, ownerID string, memberIDs []string) (*Project, error) {
	if name == "" {
		return nil, fmt.Errorf("core: project needs a name")
	}
	return projects.create(s.store.db, func(tx *relstore.Tx, id string) (*Project, error) {
		if _, err := users.row(tx, ownerID); err != nil {
			return nil, fmt.Errorf("core: owner %q: %w", ownerID, err)
		}
		for _, m := range memberIDs {
			if _, err := users.row(tx, m); err != nil {
				return nil, fmt.Errorf("core: member %q: %w", m, err)
			}
		}
		return &Project{
			ID: id, Name: name, Description: description,
			OwnerID: ownerID, MemberIDs: memberIDs, Created: s.now(),
		}, nil
	})
}

// GetProject returns the project with the given id.
func (s *Service) GetProject(id string) (*Project, error) { return projects.view(s.store.db, id) }

// ListProjects returns all projects.
func (s *Service) ListProjects() ([]*Project, error) { return projects.list(s.store.db, "", "") }

// ArchiveProject marks a project (and implicitly its evaluation settings
// and results) as persistent and read-only (paper §2.1, requirement iv).
func (s *Service) ArchiveProject(id string) error {
	return projects.update(s.store.db, id, func(p *Project) { p.Archived = true })
}

// AddProjectMember adds a user to a project.
func (s *Service) AddProjectMember(projectID, userID string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		p, err := projects.get(tx, projectID)
		if err != nil {
			return err
		}
		if p.Archived {
			return ErrArchived
		}
		if _, err := users.row(tx, userID); err != nil {
			return err
		}
		if p.HasMember(userID) {
			return nil
		}
		p.MemberIDs = append(p.MemberIDs, userID)
		return projects.put(tx, p)
	})
}

// --- Systems ---

// RegisterSystem declares a System under Evaluation: its parameters and
// result diagrams (paper Fig. 2 workflow).
func (s *Service) RegisterSystem(name, description string, defs []params.Definition, diagrams []DiagramSpec) (*System, error) {
	return s.RegisterSystemFrom("", name, description, defs, diagrams)
}

// RegisterSystemFrom is RegisterSystem for a definition taken from an
// extension repository, recording source, its provenance, in the same
// commit (paper: systems can be registered "by providing a path to a git
// or mercurial repository").
func (s *Service) RegisterSystemFrom(source, name, description string, defs []params.Definition, diagrams []DiagramSpec) (*System, error) {
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
	return systems.create(s.store.db, func(_ *relstore.Tx, id string) (*System, error) {
		return &System{
			ID: id, Name: name, Description: description, Source: source,
			Parameters: defs, Diagrams: diagrams, Created: s.now(),
		}, nil
	})
}

// GetSystem returns the system with the given id.
func (s *Service) GetSystem(id string) (*System, error) { return systems.view(s.store.db, id) }

// ListSystems returns all registered systems.
func (s *Service) ListSystems() ([]*System, error) { return systems.list(s.store.db, "", "") }

// --- Deployments ---

// CreateDeployment registers an instance of a system in an environment.
func (s *Service) CreateDeployment(systemID, name, environment, version string) (*Deployment, error) {
	return deployments.create(s.store.db, func(tx *relstore.Tx, id string) (*Deployment, error) {
		if _, err := systems.row(tx, systemID); err != nil {
			return nil, fmt.Errorf("core: system %q: %w", systemID, err)
		}
		return &Deployment{
			ID: id, SystemID: systemID, Name: name,
			Environment: environment, Version: version, Active: true, Created: s.now(),
		}, nil
	})
}

// SetDeploymentActive enables or disables a deployment for scheduling.
func (s *Service) SetDeploymentActive(id string, active bool) error {
	return deployments.update(s.store.db, id, func(d *Deployment) { d.Active = active })
}

// ListDeployments returns deployments, optionally filtered by system.
func (s *Service) ListDeployments(systemID string) ([]*Deployment, error) {
	return deployments.list(s.store.db, "systemId", systemID)
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
	return experiments.create(s.store.db, func(tx *relstore.Tx, id string) (*Experiment, error) {
		p, err := projects.row(tx, projectID)
		if err != nil {
			return nil, fmt.Errorf("core: project %q: %w", projectID, err)
		}
		if p["archived"].(bool) {
			return nil, ErrArchived
		}
		sys, err := systems.get(tx, systemID)
		if err != nil {
			return nil, fmt.Errorf("core: system %q: %w", systemID, err)
		}
		if _, err := params.NewSpace(sys.Parameters, settings); err != nil {
			return nil, err
		}
		return &Experiment{
			ID: id, ProjectID: projectID, SystemID: systemID,
			Name: name, Description: description, Settings: settings,
			MaxAttempts: maxAttempts, Created: s.now(),
		}, nil
	})
}

// GetExperiment returns the experiment with the given id.
func (s *Service) GetExperiment(id string) (*Experiment, error) {
	return experiments.view(s.store.db, id)
}

// ListExperiments returns the experiments of a project (all when empty).
func (s *Service) ListExperiments(projectID string) ([]*Experiment, error) {
	return experiments.list(s.store.db, "projectId", projectID)
}

// ArchiveExperiment freezes an experiment.
func (s *Service) ArchiveExperiment(id string) error {
	return experiments.update(s.store.db, id, func(e *Experiment) { e.Archived = true })
}
