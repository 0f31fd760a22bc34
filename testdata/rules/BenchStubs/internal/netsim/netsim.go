// Package netsim declares a bench stub.
package netsim

// Network is a network.
type Network struct{}

// SetBatched does nothing.
func (n *Network) SetBatched(bool) {}
