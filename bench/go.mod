module degradedfirst/bench

go 1.22

require degradedfirst v0.0.0

replace degradedfirst => ../
