//go:build race

package group

func init() { raceBuild = true }
