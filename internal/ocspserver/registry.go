package ocspserver

import (
	"bytes"
	"crypto"
	"fmt"
	"sort"
	"sync"

	"github.com/netmeasure/muststaple/internal/memo"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

// Registry routes requests to per-CA tenants. A CertID names its issuer
// by hashed subject name and hashed public key; the registry indexes
// every tenant under both hashes for both algorithms clients use (SHA-1
// per RFC 5019, SHA-256 from modern stacks), so routing is a single map
// lookup once the request is parsed.
type Registry struct {
	mu sync.RWMutex
	// byKey and byName map raw issuer hashes (as string keys, prefixed
	// with the hash algorithm) to the owning tenant. Key hashes are
	// authoritative; name hashes are a fallback for requests whose key
	// hash matches nothing (they cannot disagree for a registered CA).
	byKey  map[string]*responder.Responder
	byName map[string]*responder.Responder
	hosts  map[string]*responder.Responder
}

// NewRegistry returns an empty tenant registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*responder.Responder),
		byName: make(map[string]*responder.Responder),
		hosts:  make(map[string]*responder.Responder),
	}
}

var registryHashes = []crypto.Hash{crypto.SHA1, crypto.SHA256}

// Register adds a tenant, indexing it under its CA's issuer hashes. A
// second tenant for the same issuer replaces the first (same semantics
// as netsim.RegisterHost); distinct tenants sharing a host name are
// rejected.
func (g *Registry) Register(r *responder.Responder) error {
	keys := make([]string, 0, len(registryHashes))
	names := make([]string, 0, len(registryHashes))
	for _, h := range registryHashes {
		key, err := pkixutil.IssuerKeyHash(r.CA.Certificate, h)
		if err != nil {
			return fmt.Errorf("ocspserver: hashing issuer key for %s: %w", r.Host, err)
		}
		name, err := pkixutil.IssuerNameHash(r.CA.Certificate, h)
		if err != nil {
			return fmt.Errorf("ocspserver: hashing issuer name for %s: %w", r.Host, err)
		}
		keys = append(keys, hashKey(h, key))
		names = append(names, hashKey(h, name))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.hosts[r.Host]; ok && prev != r {
		return fmt.Errorf("ocspserver: tenant host %s already registered", r.Host)
	}
	for i := range keys {
		g.byKey[keys[i]] = r
		g.byName[names[i]] = r
	}
	g.hosts[r.Host] = r
	return nil
}

// hashKey builds the map key for one issuer hash under one algorithm.
func hashKey(h crypto.Hash, sum []byte) string {
	return string(rune(h)) + string(sum)
}

// RouteRequest resolves the tenant serving a parsed request, nil when no
// registered CA matches. Multi-serial requests are routed by their first
// CertID: a request spanning CAs is not answerable by any single tenant,
// and the routed tenant's own issuer check marks foreign serials
// unknown, which is what RFC 6960 prescribes.
func (g *Registry) RouteRequest(req *ocsp.Request) *responder.Responder {
	if len(req.CertIDs) == 0 {
		return nil
	}
	id := req.CertIDs[0]
	g.mu.RLock()
	defer g.mu.RUnlock()
	if r, ok := g.byKey[hashKey(id.HashAlgorithm, id.IssuerKeyHash)]; ok {
		return r
	}
	return g.byName[hashKey(id.HashAlgorithm, id.IssuerNameHash)]
}

// Responders returns the registered tenants sorted by host, for
// deterministic iteration (stats scrapes, debug listings).
func (g *Registry) Responders() []*responder.Responder {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hosts := make([]string, 0, len(g.hosts))
	for h := range g.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	out := make([]*responder.Responder, len(hosts))
	for i, h := range hosts {
		out[i] = g.hosts[h]
	}
	return out
}

// Len returns the number of registered tenants.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.hosts)
}

// The route memo caches (request hash → tenant) so the multi-tenant hot
// path skips re-parsing byte-identical requests — the same observation
// the responder's signed-response cache exploits, applied one layer up.
// Entries are confirmed against the stored request bytes, so a hash
// collision costs a re-parse, never a mis-route. Tenancy is fixed after
// startup in every deployment this repo models, so entries never need
// invalidation; the memo is capped at 8×512 entries regardless.
const routeBudget = 8 * 512

type routeEntry struct {
	reqDER []byte
	r      *responder.Responder
}

type routeCache struct {
	m memo.Cache[uint64, routeEntry]
}

func (c *routeCache) get(h uint64, reqDER []byte) (*responder.Responder, bool) {
	if e, ok := c.m.Get(h, h); ok && bytes.Equal(e.reqDER, reqDER) {
		return e.r, true
	}
	return nil, false
}

func (c *routeCache) put(h uint64, reqDER []byte, r *responder.Responder) {
	c.m.Put(h, h, routeEntry{reqDER: append([]byte(nil), reqDER...), r: r}, routeBudget)
}
