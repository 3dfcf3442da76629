//go:build race

package faultdir

func init() { raceBuild = true }
