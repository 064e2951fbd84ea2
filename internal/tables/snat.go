package tables

import (
	"errors"
	"net/netip"

	"sailfish/internal/netpkt"
)

// SNAT errors.
var (
	// ErrSNATExhausted reports that no public IP/port is free.
	ErrSNATExhausted = errors.New("tables: SNAT port pool exhausted")
)

// SNATKey identifies a private session: the tenant's VNI plus the inner
// five-tuple (Fig. 11's "Session Five-tuple"). The session store that
// allocates against it lives in internal/snat.
type SNATKey struct {
	VNI  netpkt.VNI
	Flow netpkt.Flow
}

// SNATBinding is a public (IP, port) allocated to a session.
type SNATBinding struct {
	PublicIP   netip.Addr
	PublicPort uint16
}
