//go:build race

package rpc

func init() { raceBuild = true }
