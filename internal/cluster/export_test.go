package cluster

// Test fixtures shared with the external cluster_test package, whose tests
// drive a region through shardplane (which imports this package).
var (
	SmallConfig   = smallConfig
	BuildPacket   = buildPacket
	InstallTenant = installTenant
	T0            = t0
)
