module condor/benchmark

go 1.22

require condor v0.0.0

replace condor => ../
