module rio/benchmark

go 1.24

require rio v0.0.0

replace rio => ../
