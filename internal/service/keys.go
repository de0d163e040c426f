package service

import (
	"fmt"
	"sync"
)

// Kind names the namespace a request body belongs to: the endpoint it
// was posted to.
type Kind uint8

const (
	KindSweep Kind = iota // a SweepRequest, POST /v1/sweep
	KindSim               // a SimRequest, POST /v1/sim
)

// KeyMemo maps request bytes to their content address. The address is a
// pure function of the kind, the bytes and CodeVersion (a constant of
// the build), so a repeat of the same bytes may reuse the key the
// strict path computed for them: one map lookup instead of a strict
// decode, normalization, validation, json.Marshal and SHA-256. Only
// successes are filed; a body that fails is refused the same way every
// time. A body is filed with the kind it was keyed as, and the same
// bytes asked for as the other kind take the strict path. No body over
// smallBodyBytes is filed, and the memo is LRU-bounded, like the result
// tier it fronts. Safe for concurrent use.
type KeyMemo struct {
	mu     sync.Mutex
	bodies lru[memoEntry] // request bytes -> kind and key
}

type memoEntry struct {
	kind Kind
	key  string
}

// NewKeyMemo returns a memo bounded to maxEntries bodies (>= 1).
func NewKeyMemo(maxEntries int) *KeyMemo {
	return &KeyMemo{bodies: newLRU[memoEntry](maxEntries, nil)}
}

// KeyBody returns the content address of body, a request of the given
// kind: the key SweepKey or SimKey gives the strictly decoded request,
// or that path's error, which wraps ErrBadRequest.
func (m *KeyMemo) KeyBody(kind Kind, body []byte) (string, error) {
	if len(body) > smallBodyBytes {
		return keyOf(kind, body)
	}
	m.mu.Lock()
	e, ok := m.bodies.getBytes(body)
	m.mu.Unlock()
	if ok && e.kind == kind {
		return e.key, nil
	}
	key, err := keyOf(kind, body)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	m.bodies.add(string(body), memoEntry{kind: kind, key: key})
	m.mu.Unlock()
	return key, nil
}

// Len reports how many bodies the memo holds.
func (m *KeyMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bodies.len()
}

// keyOf keys body as a request of the given kind on the strict path.
func keyOf(kind Kind, body []byte) (key string, err error) {
	switch kind {
	case KindSweep:
		_, key, err = decodeKeyed[SweepRequest]("sweep", body)
	case KindSim:
		_, key, err = decodeKeyed[SimRequest]("sim", body)
	default:
		err = fmt.Errorf("service: unknown request kind %d", kind)
	}
	return key, err
}

// request is a result request type: SweepRequest or SimRequest.
type request[R any] interface {
	normalize() R
	validate() error
}

// decodeKeyed is the strict path from request bytes to a content
// address: a strict decode, then what SweepKey or SimKey does (tag
// "sweep" or "sim"). It also returns the normalized request. Every
// failure wraps ErrBadRequest.
func decodeKeyed[R request[R]](tag string, body []byte) (R, string, error) {
	var req R
	if err := decodeStrict(body, &req); err != nil {
		return req, "", err
	}
	return keyed(tag, req)
}

// keyed normalizes and validates a decoded request and hashes it under
// its kind tag, returning the normalized request and its key.
func keyed[R request[R]](tag string, req R) (R, string, error) {
	req = req.normalize()
	if err := req.validate(); err != nil {
		return req, "", err
	}
	return req, cacheKey(tag, req), nil
}
