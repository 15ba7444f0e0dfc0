package serve

import (
	"strings"

	"repro/internal/store"
)

// PutContainer installs a gcsr2 out-of-core container as the current
// snapshot under name. The graph is materialized once — the store pins
// and releases every segment through its //lint:pair-checked Pin/Release
// protocol — and the snapshot's digest is the container's own checksum
// (SHA-256 of the container bytes, the same value `ndprun -store`
// prints), not a re-encoding of the in-RAM graph. Result-cache keys are
// therefore the storage identity: re-serving the identical container
// file after a restart hits the cache without recomputing anything.
//
// The store belongs to the caller and can be closed as soon as
// PutContainer returns; the snapshot holds only the materialized graph.
func (r *Registry) PutContainer(name string, st *store.Store) (SnapshotInfo, error) {
	d, err := st.Digest()
	if err != nil {
		return SnapshotInfo{}, err
	}
	g, err := st.Materialize()
	if err != nil {
		return SnapshotInfo{}, err
	}
	s := &Snapshot{
		name: name,
		g:    g,
		// Bare hex, matching GraphDigest's shape: job info derivation
		// slices the first 64 key characters as the digest.
		digest: strings.TrimPrefix(d, "sha256:"),
	}
	s.refs.Store(1)
	return r.install(s), nil
}

// PutContainerFile opens path as a gcsr2 container, installs it via
// PutContainer, and closes the container.
func (r *Registry) PutContainerFile(name, path string) (SnapshotInfo, error) {
	st, err := store.OpenFile(path, store.Options{})
	if err != nil {
		return SnapshotInfo{}, err
	}
	info, err := r.PutContainer(name, st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return SnapshotInfo{}, err
	}
	return info, nil
}
