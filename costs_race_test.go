//go:build race

package ctsan

func init() { raceBuild = true }
