module byzopt/benchmark

go 1.24

require byzopt v0.0.0

replace byzopt => ../
