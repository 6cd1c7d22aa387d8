module lobster/benchmark

go 1.22

require lobster v0.0.0

replace lobster => ../
